package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anonurb/internal/host"
	"anonurb/internal/obs"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// This file is the live driver of the join protocol (DESIGN.md §13). The
// protocol — joiner and donor side — is internal/host; here is what only
// a live joiner has: a context, a transport to read frames from, a
// ticker, and the jittered back-off between donors.

// ErrStaleSnapshot rejects a donor snapshot whose delta-stream
// incarnation is below the joiner's floor (WithJoinFloor).
var ErrStaleSnapshot = host.ErrStaleSnapshot

// joinBackoffCap bounds the exponential stall-timeout growth at this
// multiple of the base timeout.
const joinBackoffCap = 32

// joinBackoff computes the stall timeout ahead of re-solicit #attempt
// (0-based): base·2^attempt capped at base·joinBackoffCap, plus a
// jitter drawn uniformly from [0, half that]. Under partition heal or a
// crash storm many joiners abandon their donors in the same instant; a
// fixed timeout re-solicits them in lockstep, and every live peer then
// snapshots and serves all of them at once, repeatedly. The exponential
// spreads repeat offenders out in time, the jitter decorrelates joiners
// that started together, and the determinism of the injected rng keeps
// the schedule pinnable in tests (TestJoinBackoffSchedule).
func joinBackoff(base time.Duration, attempt int, rng *xrand.Source) time.Duration {
	d := base
	for i := 0; i < attempt; i++ {
		if d >= base*joinBackoffCap {
			break
		}
		d *= 2
	}
	if d > base*joinBackoffCap {
		d = base * joinBackoffCap
	}
	return d + time.Duration(rng.Int63n(int64(d/2)+1))
}

// WithJoinFrom hands Join an already-obtained snapshot container (the
// internal/store snapshot-file framing, e.g. copied out-of-band from a
// peer's store) instead of soliciting one over the transport. The
// container still passes the full verification gate.
func WithJoinFrom(container []byte) Option {
	return func(o *options) { o.joinFrom = container }
}

// WithJoinFloor sets the joiner's incarnation floor: donor snapshots
// whose delta-stream incarnation (urb.SnapshotInfo.Incarnation) is
// below it are rejected as stale. A node rejoining after a leave sets
// this from its last known state; 0 (the default) accepts any
// well-formed snapshot.
func WithJoinFloor(incarnation uint64) Option {
	return func(o *options) { o.joinFloor = incarnation }
}

// WithJoinTimeout sets how long a transfer may stall — no new bytes
// received — before the joiner abandons the donor and solicits afresh,
// which any other live peer may answer (default 500ms). The context
// passed to Join bounds the whole bootstrap.
func WithJoinTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.joinTimeout = d
		}
	}
}

// Join bootstraps a fresh process into a running cluster (DESIGN.md
// §13): it acquires a state snapshot from a live peer over tr — chunked
// SNAPREQ/SNAPCHUNK transfer, resumable under loss, retried against
// another peer if the donor dies — verifies it (container CRC, full
// urb.VerifySnapshot round-trip, staleness floor), restores it into
// proc and converts it to joiner state with Adopt: the joiner keeps the
// donor's delivered set (it will never re-deliver adopted history) but
// acks under fresh tag_acks and a fresh detector label.
//
// proc must be freshly constructed (its own seed, stream position
// zero) and implement urb.Joiner; both paper algorithms and the
// heartbeat host do. st, when non-nil, makes the joiner durable exactly
// as WithStore does (which it overrides), with the adopted state
// checkpointed as its baseline. ctx bounds the transfer; the returned
// node is not started. It is built last, after the transfer and all
// store work: on error no node exists, nothing was started, and tr is
// still the caller's.
func Join(ctx context.Context, proc urb.Process, st store.Store, tr transport.Transport, opts ...Option) (*Node, error) {
	if _, ok := proc.(urb.Joiner); !ok {
		return nil, fmt.Errorf("node: %T does not implement urb.Joiner", proc)
	}
	o := parse(opts)
	container := o.joinFrom
	if container == nil {
		var err error
		if container, err = pullSnapshot(ctx, tr, o); err != nil {
			return nil, err
		}
	} else if err := host.Vet(container, o.joinFloor); err != nil {
		return nil, fmt.Errorf("node: join: %w", err)
	}
	// The tracer goes in before the adoption, which traces ADOPT.
	o.install(proc)
	baseline, err := host.Adopt(proc, st, container)
	if err != nil {
		return nil, err
	}
	// SNAP_DONE on the joiner's tracer: the container is verified,
	// restored and adopted — the bootstrap transfer is complete.
	o.tracer.Snap(obs.EvSnapDone, len(container), len(container))
	o.store = st
	n := build(proc, tr, o)
	if st != nil {
		n.countCheckpoint(baseline)
	}
	n.joinedBytes = len(container)
	return n, nil
}

// JoinedBytes reports the donor container size the Join that built this
// node transferred (zero for nodes built any other way) — the join
// protocol's catch-up cost, before post-join deltas.
func (n *Node) JoinedBytes() int { return n.joinedBytes }

// pullSnapshot drives a host.Joiner over tr until a container passes
// its gate: every received frame is offered to it, its request goes
// out on the tick cadence (the same pacing Task-1 gives
// retransmissions), and its patience with each donor follows the
// joinBackoff schedule, the base being the configured join timeout.
func pullSnapshot(ctx context.Context, tr transport.Transport, o options) ([]byte, error) {
	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	rng := xrand.SplitLabeled(o.seed, "join-backoff")
	j := host.NewJoiner(0, o.joinFloor, func(attempt int) int64 {
		return int64(joinBackoff(o.joinTimeout, attempt, rng))
	})
	send := func(m wire.Message) { tr.Send(m.Encode(nil)) }
	send(j.Request(0))
	req := time.NewTicker(o.tickEvery)
	defer req.Stop()
	for {
		select {
		case <-ctx.Done():
			received, total := j.Progress()
			return nil, fmt.Errorf("node: join: %w after %d/%d bytes", ctx.Err(), received, total)
		case frame, ok := <-tr.Receive():
			if !ok {
				return nil, errors.New("node: join: transport closed")
			}
			for m := range host.Messages(frame) {
				container, resolicit := j.Offer(m, now())
				if container != nil {
					return container, nil
				}
				if resolicit {
					send(j.Request(now()))
				}
			}
		case <-req.C:
			send(j.Request(now()))
		}
	}
}
