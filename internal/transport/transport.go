// Package transport defines the communication substrate a node runs on:
// a Transport carries encoded wire frames (see internal/wire) from one
// node to every node in the system, including the sender itself — the
// paper's anonymous broadcast primitive.
//
// Three implementations ship with the repository:
//
//   - Mesh: N in-process endpoints over the simulator's channel.LinkModel
//     mesh (internal/channel), delays realised with real timers. This is
//     what the live cluster runtime (internal/liverun) runs on.
//   - UDP: real sockets. UDP datagrams are unreliable, unordered and
//     unduplicated-by-assumption — a fair lossy channel out of the box.
//     One datagram goes to each remote peer; the sender's own copy is
//     offered to its inbox in-process, lost only when the inbox is
//     full, as a datagram would be.
//   - Chaos: a wrapper applying any channel.LinkModel (Bernoulli,
//     Gilbert–Elliott, DropFirst, …) to another transport, so every
//     simulator loss scenario can be replayed against real sockets.
//
// Transports carry opaque frames; they never inspect the payload. The
// node layer (internal/node) encodes and decodes wire.Message values at
// the boundary, so a frame on any transport is the canonical codec form
// and corrupt frames are rejected by wire.Decode, never delivered.
package transport

// Transport carries encoded wire frames between one node and all nodes
// of the system (including the sender: the broadcast primitive is
// self-inclusive, and the self-link is as lossy as any other).
//
// Semantics:
//
//   - Send enqueues one frame for broadcast and returns without waiting
//     for delivery. The transport takes ownership of the slice; the
//     caller must not modify it afterwards. Frames may be dropped,
//     delayed and reordered arbitrarily — every transport here is at
//     most fair lossy, and the algorithms are built for exactly that.
//   - Receive returns the inbound frame channel. Received frames are
//     READ-ONLY and may be shared between receivers (the mesh hands the
//     same slice to every endpoint); consumers never mutate a frame. A
//     transport never reuses a frame it handed out, either: decoded
//     messages borrow their bodies from it (wire.DecodePrefix), so its
//     bytes must hold still for as long as a receiver looks. The
//     channel is closed after Close; ranging over it terminates.
//   - Close releases the transport's resources. It is idempotent. After
//     Close, Send is a silent no-op (a closed endpoint is
//     indistinguishable from a crashed one).
//   - FrameBudget reports the largest frame (in bytes) one Send can
//     carry, or 0 for no bound. It is a static hint for senders that
//     coalesce several wire messages into one batch frame (the node
//     runtime does): batches built within the budget are never refused
//     for size. UDP reports the datagram ceiling MaxUDPFrame; the mesh
//     budget is configurable; Chaos reports its inner transport's.
//
// Implementations must make Send and Close safe to call concurrently
// with each other and with channel receives.
type Transport interface {
	Send(frame []byte)
	Receive() <-chan []byte
	FrameBudget() int
	Close() error
}

// OverflowCounter is implemented by transports that can report how many
// inbound frames they discarded because the receiver's inbox was full.
// Overflow drops are legal — a fair lossy channel may lose anything —
// but they are *load shedding*, not network loss: a saturated receiver
// sheds whole frames, and with batching each shed frame may carry many
// messages. Distinguishing them from modelled link loss is what lets
// experiments observe saturation directly instead of inferring it from
// noisy ratios (see EXPERIMENTS.md). Mesh endpoints and UDP implement
// it; Chaos wrappers are transparent to the Overflows helper below;
// Node.InboxOverflows surfaces it.
type OverflowCounter interface {
	// Overflows reports inbound frames dropped on a full inbox so far.
	Overflows() uint64
}

// Wrapper is implemented by transports that decorate another transport
// (Chaos, the admission stage in internal/admit, future shims). The
// Overflows helper unwraps through it to find a counting transport.
type Wrapper interface {
	// Inner returns the wrapped transport.
	Inner() Transport
}

// Overflows reports tr's inbox-overflow drop count, or (0, false) when
// the transport cannot count overflows. A wrapper that counts overflows
// itself (an admission stage's lane drops are overflow) answers
// directly; wrappers without an inbox of their own (Chaos) are unwrapped
// until a counting transport is found. A wrapper chain over a transport
// that cannot count therefore correctly reports false, not a misleading
// zero.
func Overflows(tr Transport) (uint64, bool) {
	for tr != nil {
		if oc, ok := tr.(OverflowCounter); ok {
			return oc.Overflows(), true
		}
		w, ok := tr.(Wrapper)
		if !ok {
			break
		}
		tr = w.Inner()
	}
	return 0, false
}

// offer pushes a frame into an inbox without blocking; a full inbox
// drops the frame, which the fair lossy channel model permits. It
// reports whether the frame was accepted.
func offer(inbox chan []byte, frame []byte) bool {
	select {
	case inbox <- frame:
		return true
	default:
		return false
	}
}
