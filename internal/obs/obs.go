// Package obs is the structured tracing subsystem (DESIGN.md §14): a
// per-node bounded ring buffer of typed lifecycle events emitted from
// the node and urb step sites, with offline analysis on top — per-message
// timelines (timeline.go), Chrome trace-event export (chrome.go), a
// delivery stall explainer (explain.go) and a live HTTP debug endpoint
// (serve.go).
//
// The design constraint is the hot path: the urb Receive/absorb paths
// are `//urb:hotpath` and must stay zero-alloc (DESIGN.md §12), so the
// tracer is OFF by default via a zero-valued knob — every emit site
// calls through a *Tracer method that is nil-receiver safe, and a nil
// tracer costs one pointer test and branch per site, with no
// allocation, no interface boxing and no argument escape. When a tracer
// is installed, steady-state emits (RECV, ACK_PROGRESS, DELIVER, …)
// write one fixed-size Event into a preallocated ring under a mutex:
// still allocation-free. The only allocating emit is the once-per-
// message FIRST_SEND dedup entry, which is amortised O(1) per broadcast,
// never per frame.
//
// Volume policy: lifecycle events are per message, never per frame.
// Fair lossy channels are overcome by retransmission, so per-frame
// volume is unbounded — the algorithms emit RECV for the first MSG copy
// only, and trace ACK receptions solely through the ACK_PROGRESS steps
// where the evidence actually advances. liverun's TestLiveClusterTracing
// holds this line: a traced cluster records no more events than it
// sends wire messages.
//
// A simulator run is traced the same way: with sim.Config.TraceRing set,
// every process emits into its own tracer on the virtual clock, and the
// merged rings (sim.Result.Trace) are what the URB checker reads
// (check.go), in memory or from the Chrome trace file cmd/urbsim writes
// and cmd/urbcheck checks.
//
// Determinism: tracers never feed back into algorithm state — a traced
// run produces bit-identical Steps, digests and snapshots to an
// untraced one. The clock is injected by the host (wall nanoseconds
// under internal/node, virtual sim time under internal/sim), so the
// deterministic packages themselves never read a wall clock.
package obs

import (
	"sort"
	"sync"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// EventKind types one lifecycle event.
type EventKind uint8

// The lifecycle alphabet. One URB-broadcast's life, in order: BROADCAST
// at its origin, FIRST_SEND when its MSG frame first hits the wire,
// RECV when the first MSG copy reaches each receiver, a run of
// ACK_PROGRESS as delivery evidence accumulates, DELIVER when the host
// exposes the delivery (after its write-ahead commit), and — Algorithm 2
// only —
// RETIRE when the quiescence rule deletes it from MSG_i. The remaining
// kinds trace the host machinery around the algorithm: admission
// demotions, snapshot-transfer joins and the history a joiner adopts,
// and crashes and recoveries (sim runs).
const (
	EvNone EventKind = iota
	EvBroadcast
	EvFirstSend
	EvRecv
	EvAckProgress
	EvDeliver
	EvRetire
	EvAdmitDemote
	EvSnapReq
	EvSnapChunk
	EvSnapDone
	EvCrash
	EvAdopt
)

// String names the kind the way the exporters spell it.
func (k EventKind) String() string {
	switch k {
	case EvBroadcast:
		return "BROADCAST"
	case EvFirstSend:
		return "FIRST_SEND"
	case EvRecv:
		return "RECV"
	case EvAckProgress:
		return "ACK_PROGRESS"
	case EvDeliver:
		return "DELIVER"
	case EvRetire:
		return "RETIRE"
	case EvAdmitDemote:
		return "ADMIT_DEMOTE"
	case EvSnapReq:
		return "SNAP_REQ"
	case EvSnapChunk:
		return "SNAP_CHUNK"
	case EvSnapDone:
		return "SNAP_DONE"
	case EvCrash:
		return "CRASH"
	case EvAdopt:
		return "ADOPT"
	}
	return "NONE"
}

// Event is one fixed-size ring slot. Kind-specific meaning of the
// scalar fields:
//
//	ACK_PROGRESS: Have/Need are the evidence count and the delivery
//	              threshold (Algorithm 1: distinct tag_acks vs majority;
//	              Algorithm 2: claims on the closest AΘ pair vs its
//	              number), Aux is that pair's label (Algorithm 2).
//	RECV:         Have carries the wire.Kind byte.
//	DELIVER:      Have is 1 for a fast delivery (Remark, Section III).
//	ADMIT_DEMOTE: Flow is the demoted flow id.
//	SNAP_CHUNK:   Have/Need are the chunk offset and total.
//	CRASH:        Need is 1 when the process recovered instead.
//	ADOPT:        Msg is one id a joiner took as already delivered.
type Event struct {
	// Seq is the tracer-local emission number (dense, starts at 1);
	// the ring keeps the latest events, so the first retained Seq
	// exceeds 1 once the buffer has wrapped.
	Seq uint64
	// At is a host-clock timestamp: wall nanoseconds under the live
	// node runtime, virtual time under the simulator.
	At int64
	// Node is the emitting node/process index (-1 when unknown).
	Node int32
	Kind EventKind
	// Msg identifies the message the event concerns (zero MsgID for
	// node-scoped events like ADMIT_DEMOTE).
	Msg  wire.MsgID
	Have int64
	Need int64
	Flow uint64
	Aux  ident.Tag
}

// DefaultCapacity is the ring size used when a Tracer is built with
// capacity <= 0: enough for the full lifecycle of a few thousand
// messages, ~100 bytes a slot.
const DefaultCapacity = 1 << 14

// slot is one ring entry. Deliberately pointer-free: the ring is the
// tracer's only bulk allocation (DefaultCapacity slots per node), and a
// pointer-carrying ring of that size would be re-scanned on every GC
// cycle for the tracer's whole lifetime — measurably more overhead than
// the emits themselves (a tracing-overhead measurement caught exactly
// this; BenchmarkEmit keeps the emit cost in view). The one
// pointer in the public Event — the message body string — is interned
// per distinct message in Tracer.bodies, and the slot stores its
// index+1 (0 = empty body).
type slot struct {
	seq  uint64
	at   int64
	node int32
	kind EventKind
	tag  ident.Tag
	body uint32
	have int64
	need int64
	flow uint64
	aux  ident.Tag
}

// event rehydrates the public form.
func (s slot) event(bodies []string) Event {
	e := Event{
		Seq: s.seq, At: s.at, Node: s.node, Kind: s.kind,
		Msg:  wire.MsgID{Tag: s.tag},
		Have: s.have, Need: s.need, Flow: s.flow, Aux: s.aux,
	}
	if s.body != 0 {
		e.Msg.Body = bodies[s.body-1]
	}
	return e
}

// Tracer is a bounded ring of events. All emit methods are safe on a
// nil receiver (the off state) and safe for concurrent use — emits are
// serialised by the host's node goroutine in practice, but snapshot
// readers (the debug endpoint) run concurrently with them.
type Tracer struct {
	node  int32
	clock func() int64

	mu sync.Mutex
	// buf is the preallocated ring, guarded by mu; the write cursor is
	// total % len(buf). len(buf) is immutable after New, so readers of
	// the length alone need no lock.
	buf []slot
	// total counts every emit ever (== last seq); guarded by mu.
	total uint64
	// bodies interns message body strings; slots refer to entries by
	// index+1. The table is compacted against the live ring whenever it
	// outgrows it (see intern), so retained memory stays O(capacity)
	// even though the ring wraps forever. Guarded by mu.
	bodies  []string
	bodyIdx map[wire.MsgID]uint32
	// firstTag dedups FirstSendMsg by broadcast tag so steady-state MSG
	// retransmissions never materialise a MsgID; guarded by mu.
	firstTag map[ident.Tag]struct{}
}

// New builds a tracer for one node. capacity <= 0 selects
// DefaultCapacity; a nil clock falls back to the emission sequence
// number, which keeps fully deterministic hosts (tests) clock-free.
func New(node int, capacity int, clock func() int64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		node:     int32(node),
		clock:    clock,
		buf:      make([]slot, capacity),
		bodyIdx:  make(map[wire.MsgID]uint32),
		firstTag: make(map[ident.Tag]struct{}),
	}
}

// Node reports the node index the tracer was built for.
func (t *Tracer) Node() int {
	if t == nil {
		return -1
	}
	return int(t.node)
}

// emit writes one event into the ring as this tracer's node, at the
// clock's time. Zero-alloc in the steady state: the slot is fixed-size
// and the body intern hits its table for every event after a message's
// first.
func (t *Tracer) emit(e Event) {
	e.Node = t.node
	if t.clock != nil {
		e.At = t.clock()
	}
	t.emitRaw(e, t.clock != nil)
}

// emitRaw writes one event into the ring, trusting e.Node, and e.At when
// timed; an untimed event is stamped with its sequence number. A time of
// 0 is a time like any other (a sim run starts at 0).
func (t *Tracer) emitRaw(e Event, timed bool) {
	s := slot{
		at: e.At, node: e.Node, kind: e.Kind, tag: e.Msg.Tag,
		have: e.Have, need: e.Need, flow: e.Flow, aux: e.Aux,
	}
	t.mu.Lock()
	if e.Msg.Body != "" {
		s.body = t.intern(e.Msg)
	}
	t.total++
	s.seq = t.total
	if !timed {
		s.at = int64(t.total)
	}
	t.buf[(t.total-1)%uint64(len(t.buf))] = s
	t.mu.Unlock()
}

// intern returns the bodies index+1 for m, adding it if new. When the
// table outgrows twice the ring, it is rebuilt from the slots still
// retained — amortised O(1) per emit, and it bounds the tracer's
// retained memory at O(capacity) over an unbounded message stream.
//
//urbvet:locked mu
func (t *Tracer) intern(m wire.MsgID) uint32 {
	if i, ok := t.bodyIdx[m]; ok {
		return i
	}
	if len(t.bodies) >= 2*len(t.buf) {
		t.compactBodies()
	}
	t.bodies = append(t.bodies, m.Body)
	i := uint32(len(t.bodies))
	t.bodyIdx[m] = i
	return i
}

// compactBodies rebuilds the intern table from the live ring, remapping
// every retained slot's body index.
//
//urbvet:locked mu
func (t *Tracer) compactBodies() {
	oldBodies := t.bodies
	t.bodies = nil
	t.bodyIdx = make(map[wire.MsgID]uint32)
	for i := range t.buf {
		s := &t.buf[i]
		if s.body == 0 {
			continue
		}
		m := wire.MsgID{Tag: s.tag, Body: oldBodies[s.body-1]}
		idx, ok := t.bodyIdx[m]
		if !ok {
			t.bodies = append(t.bodies, m.Body)
			idx = uint32(len(t.bodies))
			t.bodyIdx[m] = idx
		}
		s.body = idx
	}
}

// Broadcast records URB_broadcast(id) at this node.
func (t *Tracer) Broadcast(id wire.MsgID) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: EvBroadcast, Msg: id})
}

// FirstSendMsg records the first wire transmission of m's MSG frame by
// this node; later retransmissions of the same message are suppressed
// here, so the send path invokes it on every MSG without further
// bookkeeping. It dedups by the broadcast tag, so the MsgID (whose Body
// is a string conversion, i.e. an allocation) is materialised only once
// per message — steady-state retransmissions stay allocation-free even
// with the tracer on.
func (t *Tracer) FirstSendMsg(m wire.Message) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, dup := t.firstTag[m.Tag]; dup {
		t.mu.Unlock()
		return
	}
	t.firstTag[m.Tag] = struct{}{}
	t.mu.Unlock()
	t.emit(Event{Kind: EvFirstSend, Msg: m.ID()})
}

// Recv records reception of one wire message of the given kind.
func (t *Tracer) Recv(id wire.MsgID, kind wire.Kind) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: EvRecv, Msg: id, Have: int64(kind)})
}

// AckProgress records one step of delivery-evidence accumulation:
// have of need on the guard closest to passing, with label the AΘ pair
// involved (zero for Algorithm 1's anonymous count).
func (t *Tracer) AckProgress(id wire.MsgID, label ident.Tag, have, need int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: EvAckProgress, Msg: id, Aux: label, Have: int64(have), Need: int64(need)})
}

// Deliver records URB_deliver(id).
func (t *Tracer) Deliver(id wire.MsgID, fast bool) {
	if t == nil {
		return
	}
	var f int64
	if fast {
		f = 1
	}
	t.emit(Event{Kind: EvDeliver, Msg: id, Have: f})
}

// Retire records the quiescence rule deleting id from MSG_i
// (Algorithm 2, line 57).
func (t *Tracer) Retire(id wire.MsgID) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: EvRetire, Msg: id})
}

// Adopt records that a joiner took id as already delivered (DESIGN.md
// §13): it will never deliver it itself.
func (t *Tracer) Adopt(id wire.MsgID) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: EvAdopt, Msg: id})
}

// AdmitDemote records the admission stage demoting a flow (DESIGN.md
// §11). Called from the admission stage's ingest goroutine.
func (t *Tracer) AdmitDemote(flow uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: EvAdmitDemote, Flow: flow})
}

// Snap records one snapshot-transfer event (DESIGN.md §13): kind is
// EvSnapReq, EvSnapChunk or EvSnapDone; off/total locate a chunk.
func (t *Tracer) Snap(kind EventKind, off, total int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: kind, Have: int64(off), Need: int64(total)})
}

// EmitAt appends an arbitrary event with an explicit timestamp and node:
// the entry point for events a host emits itself (the simulator's
// CRASH).
func (t *Tracer) EmitAt(at int64, node int, e Event) {
	if t == nil {
		return
	}
	e.At = at
	e.Node = int32(node)
	t.emitRaw(e, true)
}

// Total reports how many events were ever emitted (including ones the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped reports how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	cap64 := uint64(len(t.buf))
	if n > cap64 {
		n = cap64
	}
	out := make([]Event, 0, n)
	start := t.total - n
	for i := start; i < t.total; i++ {
		out = append(out, t.buf[i%cap64].event(t.bodies))
	}
	return out
}

// Merge interleaves several tracers' retained events into one stream
// ordered by (At, Node, Seq) — the debug endpoint's and exporters' view
// of a whole cluster.
func Merge(tracers ...*Tracer) []Event {
	var out []Event
	for _, t := range tracers {
		out = append(out, t.Events()...)
	}
	sortEvents(out)
	return out
}

// sortEvents orders by timestamp, breaking ties by node then sequence
// so merged streams are deterministic.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
}
