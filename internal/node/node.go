// Package node hosts one URB algorithm instance (urb.Process) on a
// Transport: the paper's "process" realised as a runtime object with a
// context-scoped lifecycle.
//
// A Node owns one goroutine that serialises every interaction with the
// algorithm state machine — received frames, periodic Task-1 ticks, and
// application broadcasts — exactly as the urb.Process contract requires,
// through host.Loop, the loop body the simulator runs too.
//
// The transport is swappable (internal/transport): the same Node code
// runs on the in-process Mesh, on real UDP sockets, or on either wrapped
// in a Chaos loss injector.
package node

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/host"
	"anonurb/internal/obs"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Lifecycle errors.
var (
	// ErrNotRunning is returned by operations that need a started,
	// unstopped node.
	ErrNotRunning = errors.New("node: not running")
	// ErrAlreadyStarted is returned by a second Start.
	ErrAlreadyStarted = errors.New("node: already started")
	// ErrNotExplainable is returned by Explain when the hosted process
	// does not implement obs.Explainer.
	ErrNotExplainable = errors.New("node: process does not implement obs.Explainer")
	// ErrBodyTooLarge is returned by Broadcast for payloads the wire
	// codec cannot carry (len > wire.MaxBody). Rejecting here preserves
	// liveness: an uncarryable message would otherwise be retransmitted
	// forever without any transport being able to deliver it.
	ErrBodyTooLarge = errors.New("node: payload exceeds wire.MaxBody")
)

// Delivery is one URB-delivery handed to the application, stamped with
// its wall-clock time.
type Delivery struct {
	urb.Delivery
	At time.Time
}

// Observer receives the node's URB-deliveries. OnDeliver fires
// synchronously on the node's goroutine, before the delivery is queued
// on Deliveries: keep it fast, and synchronise externally if one
// Observer is shared between nodes. What the node sends and receives is
// counted by its accessors (FrameStats, MessageStats, ByteStats) and
// rendered by Gauges.
type Observer interface {
	OnDeliver(d Delivery)
}

// node run states.
const (
	stateNew int32 = iota
	stateRunning
	stateStopped
)

// options collects the functional options of NewNode.
type options struct {
	tickEvery       time.Duration
	seed            uint64
	observer        Observer
	inboxDepth      int
	store           store.Store
	checkpointEvery time.Duration
	admission       *admit.Config
	// tracer is the lifecycle tracer (DESIGN.md §14); nil — the zero
	// value — is off.
	tracer *obs.Tracer
	// joinFrom/joinFloor/joinTimeout configure Join (join.go).
	joinFrom    []byte
	joinFloor   uint64
	joinTimeout time.Duration
}

// Option configures a Node.
type Option func(*options)

// WithTickEvery sets the Task-1 tick period (default 10ms).
func WithTickEvery(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.tickEvery = d
		}
	}
}

// WithSeed seeds the node's local randomness — currently the phase shift
// of the first tick, which keeps a cluster of nodes from ticking in
// lockstep. Nodes with different seeds get different phases.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithObserver installs a delivery observer.
func WithObserver(obs Observer) Option {
	return func(o *options) { o.observer = obs }
}

// WithInboxDepth sets the capacity of the Deliveries queue (default
// 256). When the queue is full the node applies backpressure: it stops
// processing until the application drains (or the context is
// cancelled). Deliveries are never silently dropped.
func WithInboxDepth(depth int) Option {
	return func(o *options) {
		if depth > 0 {
			o.inboxDepth = depth
		}
	}
}

// WithStore makes the node durable (DESIGN.md §9): durable events —
// deliveries, tag_ack pins, local broadcasts — are written ahead to st's
// WAL before the node acts on the Step that produced them, and the full
// state machine is checkpointed to st on the WithCheckpointEvery cadence
// (compacting the WAL). A node built this way can be restarted with
// Recover. The process must implement urb.Durable (both paper algorithms
// and the heartbeat host do), and the store must be empty — a store
// already holding state is a restart, which must go through Recover;
// New panics on either violation. The node does not
// take ownership of the store — Stop leaves it open so a supervisor can
// Recover from it.
func WithStore(st store.Store) Option {
	return func(o *options) { o.store = st }
}

// WithCheckpointEvery sets the checkpoint cadence (default 1s). Shorter
// cadences bound the WAL replayed at recovery; longer ones amortise the
// snapshot cost. Checkpoints ride the Task-1 tick, so the effective
// cadence is quantised to WithTickEvery.
func WithCheckpointEvery(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.checkpointEvery = d
		}
	}
}

// WithAdmission interposes a flow-fairness admission stage (DESIGN.md
// §11, internal/admit) between the transport and the node's inbox: each
// inbound message is classified by broadcaster flow (wire.FlowOf of its
// broadcast tag), metered against a per-flow leaky bucket, and demoted
// to a droppable low-priority lane when its flow exceeds its fair
// share. Admission only drops or reorders traffic *before* the
// algorithm absorbs it — something the fair lossy channel was always
// allowed to do — so the paper's properties are untouched; what it buys
// is that one hot broadcaster can no longer evict everyone else's
// MSG/ACK frames from a finite inbox. The node takes ownership of the
// stage exactly as it does of the raw transport.
//
// Flow classification is only meaningful when broadcasters pin their
// tags' Hi halves (ident.NewFlowSource); unpinned broadcasters degrade
// to one flow per message, which admission treats as a crowd of small
// flows (never demoted at any sane Rate).
func WithAdmission(cfg admit.Config) Option {
	return func(o *options) { o.admission = &cfg }
}

// WithTracer installs a lifecycle tracer (DESIGN.md §14): the node
// emits host-level events (snapshot transfer, admission demotions, the
// deliveries it exposes) and installs the tracer into the algorithm's
// emit sites when the process implements obs.Traceable (both paper
// algorithms and the heartbeat host do). The zero value — no tracer —
// is off and costs one nil check per emit site; with a tracer
// installed, steady-state emits are allocation-free writes into the
// tracer's bounded ring.
func WithTracer(t *obs.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// Node hosts one urb.Process on a Transport. It runs host.Loop batched:
// each Step's messages share as few frames as the transport's
// FrameBudget allows, at zero byte overhead (DESIGN.md §7), and the
// frames already waiting in its inbox are taken as one burst (§6).
type Node struct {
	// loop is the hosted process and its store inside host.Loop. Loop
	// goroutine only once started.
	loop *host.Loop
	tr   transport.Transport
	opt  options

	// admission is the admit stage wrapped around the raw transport
	// (nil without WithAdmission); tr is then the stage itself.
	admission *admit.Transport

	flowMu sync.Mutex
	// flowDeliveries holds per-broadcaster-flow delivery counts, keyed
	// by wire.FlowOf of the delivered tag, on a node built
	// WithAdmission, and is nil on any other: a tag from an unpinned
	// source is its own flow, so the map would hold one entry per
	// message for ever. Written on the node goroutine, read by
	// FlowDeliveries; guarded by flowMu.
	flowDeliveries map[uint64]uint64

	deliveries chan Delivery
	subscribed atomic.Bool
	actions    chan func(urb.Process) bool

	// lifeMu serialises lifecycle transitions (Start/Stop).
	lifeMu sync.Mutex
	// state is kept atomic (not lifeMu-guarded) so hot paths can read
	// the lifecycle phase without the lock.
	state atomic.Int32
	// cancel tears down the loop's context; guarded by lifeMu, with one
	// happens-before exception on the loop goroutine (annotated there).
	cancel context.CancelFunc
	done   chan struct{}
	ctx    context.Context // set by run; read only on the loop goroutine

	sentFrames atomic.Uint64
	sentMsgs   atomic.Uint64
	recvFrames atomic.Uint64
	recvMsgs   atomic.Uint64
	badFrames  atomic.Uint64
	lastSend   atomic.Int64 // unix nanos; 0 = never sent

	// Per-class byte counters: MSG dissemination vs the ACK family
	// (full, delta, resync) vs BEAT heartbeats vs the join protocol's
	// snapshot transfer vs everything else. Splitting at the send path
	// is what lets benchmarks measure the labeled-ACK cost of
	// Algorithm 2 — the hottest wire path — separately from payload
	// dissemination, heartbeat traffic and join-time bulk transfer.
	sentMsgBytes   atomic.Uint64
	sentAckBytes   atomic.Uint64
	sentBeatBytes  atomic.Uint64
	sentSnapBytes  atomic.Uint64
	sentOtherBytes atomic.Uint64

	// Durability counters (store path; zero without WithStore).
	checkpoints     atomic.Uint64
	checkpointBytes atomic.Uint64
	walAppends      atomic.Uint64
	walBytes        atomic.Uint64
	// storeErr is the store failure that stopped the node, nil while
	// the store works.
	storeErr atomic.Pointer[error]

	// recovery records what the Recover that built this node merged (zero
	// for nodes built any other way). Written before Start.
	recovery host.Recovery
	// joinedBytes records the donor container size a Join transferred to
	// build this node (zero otherwise). Written before Start.
	joinedBytes int

	// finalStats is the algorithm's last Stats snapshot, taken on the
	// node goroutine as the loop exits (or by a never-started Stop) and
	// published by the close of done: every close(done) site writes it
	// first, so any reader that has observed done closed may read it.
	finalStats urb.Stats
}

// New builds a node hosting proc on tr. The node takes ownership of the
// transport: Stop closes it. Start must be called before the node does
// anything.
func New(proc urb.Process, tr transport.Transport, opts ...Option) *Node {
	o := parse(opts)
	if o.store != nil {
		if st := o.store.Stats(); st.SnapshotBytes > 0 || st.WALRecords > 0 {
			// A populated store under a fresh process is almost certainly
			// a restart that should have gone through Recover: running on
			// would re-pin already-acked messages under fresh tags
			// (phantom ackers) and interleave two incarnations' WAL
			// records behind one snapshot. Refuse loudly.
			panic("node: store already holds durable state; restart with node.Recover, not New")
		}
	}
	return build(proc, tr, o)
}

// install puts the configured tracer into proc's emit sites (a no-op
// without one, or for a process that is not obs.Traceable).
func (o options) install(proc urb.Process) {
	if tp, ok := proc.(obs.Traceable); ok && o.tracer != nil {
		tp.SetTracer(o.tracer)
	}
}

// parse applies opts over the defaults.
func parse(opts []Option) options {
	o := options{tickEvery: 10 * time.Millisecond, inboxDepth: 256,
		checkpointEvery: time.Second, joinTimeout: 500 * time.Millisecond}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// build is New without the populated-store refusal: Recover and Join get
// here with o.store holding exactly the state they just put there.
func build(proc urb.Process, tr transport.Transport, o options) *Node {
	if proc == nil || tr == nil {
		panic("node: process and transport are required")
	}
	o.install(proc)
	var stage *admit.Transport
	if o.admission != nil {
		acfg := *o.admission
		if t := o.tracer; t != nil {
			// Trace admitted→demoted transitions; the hook fires on the
			// stage's ingest goroutine, which the tracer tolerates.
			prev := acfg.OnDemote
			acfg.OnDemote = func(flow uint64) {
				t.AdmitDemote(flow)
				if prev != nil {
					prev(flow)
				}
			}
		}
		stage = admit.Wrap(tr, acfg)
		tr = stage
	}
	if _, ok := proc.(urb.Durable); o.store != nil && !ok {
		panic("node: WithStore requires a urb.Durable process")
	}
	// Loop time is nanoseconds since the loop goroutine started.
	cfg := host.LoopConfig{Budget: tr.FrameBudget(), Batch: true,
		CheckpointEvery: int64(o.checkpointEvery), Tracer: o.tracer}
	n := &Node{
		loop:       host.NewLoop(host.Core{Proc: proc, Store: o.store}, cfg, 0),
		tr:         tr,
		opt:        o,
		admission:  stage,
		deliveries: make(chan Delivery, o.inboxDepth),
		actions:    make(chan func(urb.Process) bool, 64),
		done:       make(chan struct{}),
	}
	if stage != nil {
		n.flowDeliveries = make(map[uint64]uint64)
	}
	return n
}

// Start launches the node goroutine. The node runs until Stop is called
// or ctx is cancelled; either way the transport is closed and the
// Deliveries channel is closed once the loop has drained.
func (n *Node) Start(ctx context.Context) error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	switch n.state.Load() {
	case stateRunning:
		return ErrAlreadyStarted
	case stateStopped:
		return ErrNotRunning
	}
	ctx, n.cancel = context.WithCancel(ctx)
	n.state.Store(stateRunning)
	go n.run(ctx)
	return nil
}

// Deliveries returns the channel of URB-deliveries. Subscribe (call
// this) before Start to observe every delivery; deliveries before the
// first call are dropped from the queue's point of view (observers still
// see them). The channel is closed when the node stops.
func (n *Node) Deliveries() <-chan Delivery {
	n.subscribed.Store(true)
	return n.deliveries
}

// Broadcast submits URB_broadcast(body) to the node and returns the
// message identity the algorithm assigned. The payload bytes are copied;
// the caller may reuse the slice. It fails with ErrNotRunning once the
// node has stopped.
func (n *Node) Broadcast(body []byte) (wire.MsgID, error) {
	if len(body) > wire.MaxBody {
		return wire.MsgID{}, ErrBodyTooLarge
	}
	if n.state.Load() != stateRunning {
		return wire.MsgID{}, ErrNotRunning
	}
	var id wire.MsgID
	if err := n.call(func(p urb.Process) func() bool {
		var s urb.Step
		id, s = p.Broadcast(body)
		return func() bool { return n.expose(n.loop.Absorb(s)) }
	}); err != nil {
		return wire.MsgID{}, err
	}
	return id, nil
}

// call runs f on the node goroutine and waits for it to return; f's
// writes are visible to the caller afterwards (the reply channel is the
// synchronisation point). A non-nil after-hook returned by f runs on
// the node goroutine once the caller has been released — Broadcast
// absorbs its Step there, so a delivery-queue backpressure stall cannot
// deadlock a caller that is also the Deliveries drainer. The hook
// reports false when the loop must stop (expose's store failure).
func (n *Node) call(f func(p urb.Process) func() bool) error {
	reply := make(chan struct{})
	act := func(p urb.Process) bool {
		after := f(p)
		close(reply)
		return after == nil || after()
	}
	select {
	case n.actions <- act:
	case <-n.done:
		return ErrNotRunning
	}
	// An after-hook that stops the loop closes done right behind reply,
	// and select picks at random among ready cases: reply, once closed,
	// must win, or an accepted broadcast would read as never submitted.
	select {
	case <-reply:
		return nil
	case <-n.done:
		select {
		case <-reply:
			return nil
		default:
			return ErrNotRunning
		}
	}
}

// Explain runs the algorithm's stall explainer for id on the node
// goroutine (DESIGN.md §14): the returned obs.Explanation names the
// delivery evidence still missing. It fails with ErrNotRunning when the
// node is stopped, and with ErrNotExplainable when the hosted process
// does not implement obs.Explainer.
func (n *Node) Explain(id wire.MsgID) (obs.Explanation, error) {
	if _, ok := n.loop.Proc.(obs.Explainer); !ok {
		return obs.Explanation{}, ErrNotExplainable
	}
	var ex obs.Explanation
	err := n.call(func(p urb.Process) func() bool {
		ex = p.(obs.Explainer).Explain(id)
		return nil
	})
	return ex, err
}

// Tracer returns the tracer installed with WithTracer (nil without).
func (n *Node) Tracer() *obs.Tracer { return n.opt.tracer }

// Stats fetches the algorithm's internal set sizes, synchronised through
// the node goroutine. After Stop (or context cancellation) it returns
// the final snapshot taken as the loop exited, so post-run accounting —
// quiescence and memory experiments — keeps working on a stopped node.
// It fails with ErrNotRunning only before Start.
func (n *Node) Stats() (urb.Stats, error) {
	if n.state.Load() == stateNew {
		return urb.Stats{}, ErrNotRunning
	}
	var st urb.Stats
	if err := n.call(func(p urb.Process) func() bool {
		st = p.Stats()
		return nil
	}); err != nil {
		// call fails only once done is closed, which publishes
		// finalStats (a never-started Stop included).
		return n.finalStats, nil
	}
	return st, nil
}

// Stop terminates the node, closes its transport and waits for the
// goroutine to exit. Idempotent; safe to call on a never-started node.
func (n *Node) Stop() error {
	n.lifeMu.Lock()
	switch n.state.Load() {
	case stateNew:
		// Never started: no goroutine, but release the transport and
		// close the delivery channel so consumers unblock. The algorithm
		// never ran, so its initial stats are the final ones.
		n.state.Store(stateStopped)
		n.finalStats = n.loop.Proc.Stats()
		close(n.done)
		close(n.deliveries)
		n.lifeMu.Unlock()
		return n.tr.Close()
	case stateRunning:
		n.state.Store(stateStopped)
		cancel := n.cancel
		n.lifeMu.Unlock()
		cancel()
		<-n.done
		return nil
	default:
		n.lifeMu.Unlock()
		<-n.done
		return nil
	}
}

// QuietFor reports whether the node has sent nothing for at least d
// (false until the first send).
func (n *Node) QuietFor(d time.Duration) bool {
	last := n.lastSend.Load()
	return last != 0 && time.Since(time.Unix(0, last)) >= d
}

// FrameStats returns (frames sent, frames received, frames discarded
// because no message decoded from them). A frame is one transport send;
// it may carry several wire messages, so frame counts are ≤ the message
// counts of MessageStats.
func (n *Node) FrameStats() (sent, received, bad uint64) {
	return n.sentFrames.Load(), n.recvFrames.Load(), n.badFrames.Load()
}

// MessageStats returns (wire messages sent, wire messages received).
// Unlike FrameStats it counts protocol messages, independent of how
// many were coalesced per transport frame.
func (n *Node) MessageStats() (sent, received uint64) {
	return n.sentMsgs.Load(), n.recvMsgs.Load()
}

// ByteStats returns the bytes this node handed to the transport, split
// by wire-message class: MSG dissemination, the ACK family (full-set,
// delta and resync frames), BEAT heartbeats, the join protocol's
// snapshot transfer (SNAPREQ/SNAPCHUNK), and everything else (future
// kinds). The sum equals exact bytes on the wire (batch framing adds
// zero bytes). Safe to poll while the node runs.
func (n *Node) ByteStats() (msgBytes, ackBytes, beatBytes, snapBytes, otherBytes uint64) {
	return n.sentMsgBytes.Load(), n.sentAckBytes.Load(), n.sentBeatBytes.Load(),
		n.sentSnapBytes.Load(), n.sentOtherBytes.Load()
}

// StoreStats describes the node's durability activity (all zero without
// WithStore).
type StoreStats struct {
	// Checkpoints and CheckpointBytes count snapshots saved and their
	// cumulative payload bytes.
	Checkpoints     uint64
	CheckpointBytes uint64
	// WALAppends and WALBytes count write-ahead records and their
	// cumulative payload bytes (across compactions).
	WALAppends uint64
	WALBytes   uint64
	// Err is the store error that stopped the node, if any. A node
	// whose store fails stops before it exposes or sends anything of
	// the Step that failed to persist, so everything it ever exposed is
	// durable; its Deliveries channel closes and the supervisor restarts
	// it through Recover.
	Err error
}

// StoreStats returns the durability counters. Safe to call while the
// node runs.
func (n *Node) StoreStats() StoreStats {
	st := StoreStats{
		Checkpoints:     n.checkpoints.Load(),
		CheckpointBytes: n.checkpointBytes.Load(),
		WALAppends:      n.walAppends.Load(),
		WALBytes:        n.walBytes.Load(),
	}
	if err := n.storeErr.Load(); err != nil {
		st.Err = *err
	}
	return st
}

// failStore records the store error that stops the node. Not inlined:
// &err would move expose's err to the heap on every Step.
//
//go:noinline
func (n *Node) failStore(err error) { n.storeErr.CompareAndSwap(nil, &err) }

// countCheckpoint records one saved snapshot of size bytes.
func (n *Node) countCheckpoint(size int) {
	n.checkpoints.Add(1)
	n.checkpointBytes.Add(uint64(size))
}

// InboxOverflows reports how many inbound frames this node's transport
// discarded because its inbox was full — the receiver-side saturation
// signal — or false when the transport cannot count overflows. With an
// admission stage installed, lane sheds count as overflow too (they are
// the same phenomenon, moved to where it can be selective).
func (n *Node) InboxOverflows() (uint64, bool) {
	return transport.Overflows(n.tr)
}

// FlowDeliveries returns this node's URB-delivery counts per
// broadcaster flow (wire.FlowOf of the delivered tag) on a node built
// WithAdmission, the stage that classifies by flow, and an empty map on
// any other. For nodes whose peers pin flow tags (ident.NewFlowSource)
// the map has one entry per broadcaster; unpinned peers contribute one
// entry per delivered message. The returned map is a copy; safe to call
// while running.
func (n *Node) FlowDeliveries() map[uint64]uint64 {
	n.flowMu.Lock()
	defer n.flowMu.Unlock()
	out := make(map[uint64]uint64, len(n.flowDeliveries))
	for f, c := range n.flowDeliveries {
		out[f] = c
	}
	return out
}

// AdmitStats returns the admission stage's accounting, or false when
// the node was built without WithAdmission.
func (n *Node) AdmitStats() (admit.Stats, bool) {
	if n.admission == nil {
		return admit.Stats{}, false
	}
	return n.admission.Stats(), true
}

// EncodeCacheStats returns (0, 0): the node encodes every message
// afresh and keeps no encode cache.
//
// Deprecated: only benchmark/driver.go still calls it. The benchmark
// change that drops wire.encode_cache_hit_share deletes it (ROADMAP.md).
func (n *Node) EncodeCacheStats() (hits, misses uint64) { return 0, 0 }

// run is the node goroutine: the single thread that touches proc.
//
//urbvet:unguarded cancel is written exactly once, by Start, before the go statement that spawns this goroutine: reading it here is ordered by goroutine creation, no lock needed
func (n *Node) run(ctx context.Context) {
	defer func() {
		n.state.Store(stateStopped)
		// Snapshot the algorithm's final stats so post-run accounting
		// (quiescence and memory experiments) survives Stop. Published
		// to other goroutines by the close of done below.
		n.finalStats = n.loop.Proc.Stats()
		n.loop.Free()
		// Release the derived context even when the loop exits on its
		// own (e.g. the transport's receive channel closed) — otherwise
		// the registration on a long-lived parent context would leak.
		n.cancel()
		n.tr.Close()
		close(n.done)
		close(n.deliveries)
	}()
	n.ctx = ctx

	// Phase-shift the first tick so a cluster of nodes does not run in
	// lockstep (the simulator does the same).
	phase := time.Duration(xrand.SplitLabeled(n.opt.seed, "node-phase").Int63n(int64(n.opt.tickEvery))) + 1
	tick := time.NewTimer(phase)
	defer tick.Stop()
	start := time.Now()
	recv := n.tr.Receive()
	for {
		select {
		case <-ctx.Done():
			return
		case frame, ok := <-recv:
			if !ok {
				return
			}
			burst, open := n.gather(recv, frame)
			if !n.absorb(burst) || !open {
				return
			}
		case <-tick.C:
			if !n.expose(n.loop.OnTick(int64(time.Since(start)))) {
				return
			}
			tick.Reset(n.opt.tickEvery)
		case f := <-n.actions:
			if !f(n.loop.Proc) {
				return
			}
		}
	}
}

// maxBurst bounds the frames run takes from the inbox at once: enough
// for a delay line's wake (about 15 copies on a five-node mesh), few
// enough that a tick or a Node.call action waits behind at most one
// burst.
const maxBurst = 64

// gather collects the burst that starts with frame: every frame already
// waiting on recv, up to maxBurst, without blocking. open is false when
// recv turned out closed; the burst is still whole.
func (n *Node) gather(recv <-chan []byte, frame []byte) (burst [][]byte, open bool) {
	burst = n.loop.Gather(frame)
	for len(burst) < maxBurst {
		select {
		case f, ok := <-recv:
			if !ok {
				return burst, false
			}
			burst = n.loop.Gather(f)
		default:
			return burst, true
		}
	}
	return burst, true
}

// absorb hands burst to the loop until it has taken every frame: a
// durable node's loop takes a burst in several calls, one per frame that
// writes ahead or replies (host.Loop.OnFrames). It reports false when
// the node must stop (expose's store failure).
func (n *Node) absorb(burst [][]byte) bool {
	for len(burst) > 0 {
		out, err := n.loop.OnFrames(burst)
		taken := out.Good + out.Bad // read before expose releases out
		if !n.expose(out, err) {
			return false
		}
		burst = burst[taken:]
	}
	return true
}

// expose carries out one host.Loop call on the node goroutine: count,
// then hand the deliveries to the application and the frames
// to the transport. It reports false on a store error: the node stops,
// and nothing of the failed Step was exposed or sent (fail-stop).
//
//urb:hotpath
func (n *Node) expose(out *host.Out, err error) bool {
	defer n.loop.Release()
	if out.Bad > 0 {
		n.badFrames.Add(uint64(out.Bad))
	}
	if out.Good > 0 {
		n.recvFrames.Add(uint64(out.Good))
		n.recvMsgs.Add(uint64(out.Received))
	}
	n.walAppends.Add(uint64(out.WALRecords))
	n.walBytes.Add(uint64(out.WALBytes))
	if out.Checkpoint > 0 {
		n.countCheckpoint(out.Checkpoint)
	}
	if err != nil {
		n.failStore(err)
		return false
	}
	// One clock reading and one lock round-trip per Step that delivers,
	// not per delivery: the deliveries of a Step happen together.
	var now time.Time
	if len(out.Deliveries) > 0 {
		now = time.Now()
		if n.flowDeliveries != nil {
			n.flowMu.Lock()
			for _, d := range out.Deliveries {
				n.flowDeliveries[wire.FlowOf(d.ID.Tag)]++
			}
			n.flowMu.Unlock()
		}
	}
	for _, d := range out.Deliveries {
		del := Delivery{Delivery: d, At: now}
		if n.opt.observer != nil {
			n.opt.observer.OnDeliver(del)
		}
		if n.subscribed.Load() {
			select {
			case n.deliveries <- del:
			case <-n.ctx.Done():
				return true
			}
		}
	}
	if len(out.Frames) == 0 {
		return true
	}
	n.sentMsgs.Add(uint64(len(out.Msgs)))
	for i, m := range out.Msgs {
		sp := out.Spans[i]
		size := uint64(sp.End - sp.Start)
		switch {
		case m.Kind == wire.KindMsg:
			n.sentMsgBytes.Add(size)
		case m.Kind.IsAck():
			n.sentAckBytes.Add(size)
		case m.Kind.IsBeat():
			n.sentBeatBytes.Add(size)
		case m.Kind.IsSnap():
			n.sentSnapBytes.Add(size)
		default:
			n.sentOtherBytes.Add(size)
		}
	}
	for _, frame := range out.Frames {
		n.tr.Send(frame)
	}
	n.sentFrames.Add(uint64(len(out.Frames)))
	n.lastSend.Store(time.Now().UnixNano())
	return true
}
