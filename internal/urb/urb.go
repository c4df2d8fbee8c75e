// Package urb is the paper's primary contribution: Uniform Reliable
// Broadcast for anonymous asynchronous systems with fair lossy channels.
//
// Two algorithms are provided, exactly as in the paper:
//
//   - Majority (Algorithm 1): no failure detector, requires a majority of
//     correct processes (t < n/2), non-quiescent — every process
//     retransmits every known message forever.
//   - Quiescent (Algorithm 2): uses the anonymous failure detectors AΘ
//     and AP*, tolerates any number of crashes, and is quiescent —
//     eventually no process sends messages.
//
// URB guarantees (Section II):
//
//	Validity:           a correct broadcaster eventually delivers its own
//	                    message.
//	Uniform agreement:  if any process (correct or not) delivers m, every
//	                    correct process eventually delivers m.
//	Uniform integrity:  every process delivers m at most once, and only if
//	                    m was broadcast.
//
// The implementations are deterministic, single-threaded state machines:
// the hosting runtime (the discrete-event simulator in internal/sim or the
// goroutine runtime in internal/node, both drivers of internal/host) feeds
// them received messages and periodic ticks, and executes the broadcasts
// and deliveries each Step returns. The state machines receive no process
// identity — their only inputs are messages, failure detector views and a
// random source — so the code is structurally unable to break the
// anonymity assumption.
package urb

import (
	"slices"

	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Delivery is one URB-delivery handed to the application layer.
type Delivery struct {
	// ID identifies the delivered message (payload + tag).
	ID wire.MsgID
	// Fast reports the paper's "fast delivery" case: the process
	// assembled the delivery evidence from ACKs alone, before receiving
	// any MSG copy of the message (Remark, Section III).
	Fast bool
}

// Body returns the delivered payload as a fresh byte slice.
func (d Delivery) Body() []byte { return d.ID.Bytes() }

// Step is the outcome of feeding one input to a process: wire messages to
// broadcast to all processes (including the sender itself), URB-deliveries
// for the local application, and durable events a persisting host must
// write ahead (hosts without a store ignore them).
type Step struct {
	Broadcasts []wire.Message
	Deliveries []Delivery
	// Durable lists the state transitions of this Step that a
	// crash-recovery host must persist before acting on the rest of the
	// Step (DESIGN.md §9): new URB-broadcasts and newly pinned tag_acks.
	// Deliveries are durable events too, but they already travel in
	// Deliveries; hosts log both. Empty unless the Step pinned or
	// broadcast something, so non-persisting hosts pay one nil slice.
	Durable []DurableEvent
}

// Merge appends o's outputs onto s. Hosting runtimes use it to coalesce
// the Steps of several inputs processed back-to-back (e.g. all messages
// of one inbound batch frame, for a process without ReceiveTo; see
// ReceiveFunc) so the combined broadcasts can travel as one batch.
func (s *Step) Merge(o Step) {
	s.Broadcasts = append(s.Broadcasts, o.Broadcasts...)
	s.Deliveries = append(s.Deliveries, o.Deliveries...)
	s.Durable = append(s.Durable, o.Durable...)
}

// Process is the interface both algorithms implement. Implementations are
// not safe for concurrent use: the hosting runtime serialises all calls to
// one instance.
type Process interface {
	// Broadcast is URB_broadcast(m): start disseminating body. The
	// payload is arbitrary bytes (copied on entry; the caller may reuse
	// the slice). The returned MsgID is the identity (tag + body) the
	// process assigned; the paper's primitive returns nothing, but
	// hosting runtimes need the identity to correlate deliveries with
	// broadcasts when measuring.
	Broadcast(body []byte) (wire.MsgID, Step)
	// Receive is receive(m): process one message that arrived on a
	// channel.
	Receive(m wire.Message) Step
	// Tick runs one full iteration of the periodic retransmission task
	// (the paper's Task 1 loop body, executed over every message in the
	// MSG set).
	Tick() Step
	// Stats reports the sizes of the algorithm's internal sets, for the
	// memory-footprint experiment (F5) and for quiescence accounting.
	Stats() Stats
}

// ReceiveFunc returns how a host lands p's receptions in a Step it is
// filling. This package's three processes append in place (ReceiveTo),
// so a duplicate allocates no Step and copies no message. Any other
// Process — the rb baselines, test fakes, decorators — is fed through
// Receive and its Step merged. The choice is by concrete type, not by
// method set: a decorator embedding one of the three overrides Receive,
// and a promoted ReceiveTo would bypass it.
func ReceiveFunc(p Process) func(out *Step, m *wire.Message) {
	switch p := p.(type) {
	case *Majority:
		return p.ReceiveTo
	case *Quiescent:
		return p.ReceiveTo
	case *HeartbeatHost:
		return p.ReceiveTo
	}
	return func(out *Step, m *wire.Message) { out.Merge(p.Receive(*m)) }
}

// Stats is a snapshot of a process's internal state sizes.
type Stats struct {
	// MsgSet is |MSG_i|: messages currently being retransmitted by Task 1.
	MsgSet int
	// MyAcks is |MY_ACK_i|: messages this process has acknowledged.
	MyAcks int
	// AckEntries is the total number of distinct (message, tagAck) pairs
	// tracked (the paper's ALL_ACK_i). Algorithm 2 tracks them only for
	// messages that are undelivered or still in MSG_i: retirement frees
	// the rest (DESIGN.md §2, D3).
	AckEntries int
	// Delivered is |URB_DELIVERED_i|.
	Delivered int
	// Retired counts messages deleted from MSG_i by the quiescence rule
	// (Algorithm 2, line 57). Always 0 for Algorithm 1.
	Retired int
	// WireSent counts wire messages this process asked to broadcast.
	WireSent uint64
	// AckLabels is the logical label count retained across all acker
	// views: what the paper's all_labels bookkeeping holds, and what an
	// uncompacted Algorithm 2 process physically stores. 0 for
	// Algorithm 1 (its ACKs carry no labels).
	AckLabels int
	// AckLabelStorage is the label count physically stored: with
	// Config.CompactDelivered the views of delivered messages share
	// interned sets, so in steady state this collapses to roughly one
	// set per distinct detector view instead of one per (message,
	// acker). Equal to AckLabels when compaction is off.
	AckLabelStorage int
	// CompactedMsgs counts messages whose acker views run compacted
	// (delivered messages under Config.CompactDelivered, until retirement
	// frees their views).
	CompactedMsgs int
}

// Config carries the knobs shared by both algorithms. The zero value is
// the paper-faithful configuration.
type Config struct {
	// EagerFirstSend, when true, broadcasts a MSG immediately from
	// URB_broadcast and from first reception instead of waiting for the
	// next Task-1 tick. The paper's pseudocode only transmits from
	// Task 1; eager sending is a latency ablation (DESIGN.md §5).
	EagerFirstSend bool
	// CheckOnTick, when true, re-evaluates the delivery guard on every
	// tick in addition to every ACK receipt, reducing delivery latency
	// when a failure detector view changes between ACK arrivals. The
	// paper checks only on receipt (Algorithm 2, line 46); this is a
	// latency ablation (DESIGN.md §5) — no guard decision changes, only
	// when guards are consulted.
	CheckOnTick bool
	// RetireBeforeSend, when true, evaluates Algorithm 2's retirement
	// guard (line 55) before retransmitting a message in Task 1 rather
	// than after, saving one final broadcast round per message. The
	// paper broadcasts first (line 54) and then checks (line 55); this
	// is a traffic ablation (DESIGN.md §5) reordering one tick's work.
	RetireBeforeSend bool
	// DeltaAcks, when true, makes Algorithm 2 acknowledge incrementally
	// (deviation D5, DESIGN.md §8): instead of attaching the full AΘ
	// label set to every ACK on every MSG reception, an acker sends its
	// set once (a snapshot ACKΔ) and thereafter only epoch-numbered
	// differences when the set changes, with unchanged re-ACKs
	// rate-limited to one per message per Task-1 tick. Receivers detect
	// epoch gaps and repair them with a resync request the acker answers
	// with a fresh snapshot. The claim bookkeeping this drives is
	// state-for-state equivalent to the full-set path (tested by
	// TestQuiescentDeltaEquivalence); only the wire representation and
	// re-ACK frequency change. The paper's listing resends the full set
	// every time, so this is off in the paper-faithful zero value.
	// Receiving delta ACKs is always supported, whatever this is set to.
	DeltaAcks bool
	// CompactDelivered, when true, compacts a message's per-acker label
	// views once the message is URB-delivered (deviation D6, DESIGN.md
	// §10): the views collapse onto refcount-interned shared sets
	// (copy-on-write), so the delivered messages awaiting retirement
	// store each distinct detector view roughly once instead of once per
	// (message, acker); retirement then frees the views (D3). Compaction is applied
	// only post-delivery, where uniformity is already secured locally;
	// the claim counters and every guard decision are bit-identical to
	// the uncompacted bookkeeping (TestQuiescentCompactionEquivalence).
	// Off in the paper-faithful zero value purely because the paper
	// stores the matrices literally.
	CompactDelivered bool
	// PaceResyncs, when true, caps how many resync requests — ACKREQ
	// from the delta-ACK receiver, BEATREQ from the delta-beat receiver
	// (each family budgeted independently) — one process broadcasts per
	// Task-1 tick, at ResyncBudgetPerTick each (deviation D9, DESIGN.md
	// §15). When a partition heals, both sides discover epoch gaps on
	// every (message, acker) stream and every beat stream at once; the
	// per-stream per-tick limiters bound each stream to one request, but
	// the *number of streams* is O(n·m), so the heal instant spikes as a
	// resync storm. The budget spreads the repair over successive ticks:
	// a denied request is not remembered — the stream simply asks again
	// next tick, which is the ordinary repair cadence, so convergence is
	// delayed by at most streams/budget ticks and never lost. Off (the
	// paper-faithful zero value) is unlimited: the paper resends full
	// state every time and has no resync traffic at all, so pacing is a
	// deviation-local concern. Like the per-stream limiters this is
	// derived pacing state, excluded from snapshots and fingerprints.
	PaceResyncs bool
	// DeltaBeats, when true, makes a HeartbeatHost announce its detector
	// label incrementally (deviation D7, DESIGN.md §10): a snapshot
	// BEATΔ opens the beat stream, steady-state ALIVE refreshes then
	// travel as 15-byte
	// epoch-stamped BEATΔ frames instead of 22-byte full-label beats,
	// and receivers repair unknown refs or epoch gaps with a BEATREQ the
	// owner answers with a fresh snapshot — the detector-layer mirror of
	// the D5 ACK discipline. Receiving all beat forms is always on.
	// Ignored by the bare algorithms (beats are host traffic).
	DeltaBeats bool
}

// ResyncBudgetPerTick is how many resync requests one frame family may
// broadcast per Task-1 tick when Config.PaceResyncs is on (deviation
// D9). The exact figure only trades heal-traffic peak against repair
// spread — any positive constant preserves convergence, because denied
// streams retry on the ordinary tick cadence.
const ResyncBudgetPerTick = 8

// resyncLimit resolves the D9 pacing knob to a per-tick limit; 0 means
// unlimited (the paper has no resync traffic to pace).
func (c Config) resyncLimit() int {
	if c.PaceResyncs {
		return ResyncBudgetPerTick
	}
	return 0
}

// resyncBudget tracks one frame family's per-tick resync allowance
// (Config.PaceResyncs, deviation D9): pacing state only, reset when the
// tick advances, never snapshotted or fingerprinted.
type resyncBudget struct {
	tick uint64
	sent int
}

// take consumes one unit of the budget at the given tick. limit <= 0 is
// unlimited (the paper-faithful zero value).
func (b *resyncBudget) take(limit int, tick uint64) bool {
	if limit <= 0 {
		return true
	}
	if b.tick != tick {
		b.tick = tick
		b.sent = 0
	}
	if b.sent >= limit {
		return false
	}
	b.sent++
	return true
}

// msgRec is everything a process knows about one application message
// (DESIGN.md §10, "Message records"): the single entry of the table the
// paper's MSG_i, MY_ACK_i, URB_DELIVERED_i and ALL_ACK_i are views of.
// Receive resolves it once per wire message and every handler works on
// the pointer, so a duplicate reception — the steady state on fair lossy
// channels — probes the table by tag and compares the payload once.
type msgRec struct {
	id wire.MsgID
	// ack is the paper's MY_ACK_i entry: the unique tag_ack this process
	// generated for the message, meaningful while pinned is set. Once
	// pinned it never changes (uniform integrity depends on this).
	ack ident.Tag
	// acks is Algorithm 1's ALL_ACK_i entry: the distinct tag_acks
	// received. nil until the first ACK arrives.
	acks *ident.Set
	// st is Algorithm 2's ALL_ACK / all_labels / label_counter bundle,
	// nil until the first ACK arrives and again once the message is
	// delivered and out of MSG_i (DESIGN.md §2, D3); send its entry in
	// the acker-side delta ledger, nil until the first delta ACK goes
	// out.
	st   *ackState
	send *ackSendState
	// slot is the message's index in msgSet.order, -1 while it is not in
	// MSG_i (never inserted, or retired).
	slot int32
	// saw records that a MSG copy has been received (or the message was
	// broadcast locally); a delivery without it is a "fast delivery".
	saw bool
	// delivered is membership in the paper's URB_DELIVERED_i.
	delivered bool
	pinned    bool
}

// msgSet is the paper's MSG_i: the records currently retransmitted by
// Task 1, in insertion order. Insertion order (rather than map order)
// keeps runs deterministic. A removal leaves a nil tombstone behind until
// the next compaction; each member's slot field is its index here.
type msgSet struct {
	order []*msgRec
	// dead counts the tombstones in order.
	dead int
}

func (s *msgSet) add(rec *msgRec) bool {
	if rec.slot >= 0 {
		return false
	}
	rec.slot = int32(len(s.order))
	s.order = append(s.order, rec)
	return true
}

// remove deletes rec in O(1) amortised: the slot becomes a tombstone, and
// once tombstones outnumber the live entries the order is compacted in
// place — O(live) work paid for by at least as many removals. Iteration
// order is the insertion order of the survivors either way.
func (s *msgSet) remove(rec *msgRec) bool {
	if rec.slot < 0 {
		return false
	}
	s.order[rec.slot] = nil
	rec.slot = -1
	s.dead++
	if s.dead*2 > len(s.order) {
		live := s.order[:0]
		for _, r := range s.order {
			if r != nil {
				r.slot = int32(len(live))
				live = append(live, r)
			}
		}
		clear(s.order[len(live):])
		s.order = live
		s.dead = 0
	}
	return true
}

func (s *msgSet) len() int { return len(s.order) - s.dead }

// appendLive appends the members in insertion order to dst; Algorithm 2's
// Task 1 iterates over such a copy so that removals during the pass are
// well-defined.
func (s *msgSet) appendLive(dst []*msgRec) []*msgRec {
	for _, r := range s.order {
		if r != nil {
			dst = append(dst, r)
		}
	}
	return dst
}

// msgTable is the message table (DESIGN.md §10, "Message records"):
// one record per (m, tag) the process has ever heard of, in recs in the
// order of first contact. Records are never removed — retirement takes
// a message out of MSG_i and frees its claim state, not its record.
//
// The table is keyed by the tag alone. A tag is 128 random bits (the
// collision bound in the ident package doc), so it is already the hash:
// byTag, an ident.Index over recs, places it without hashing it again
// and stores no key — a slot is a four-byte position, and a probe reads
// the candidate's tag from its record, which a hit reads anyway for the
// exact compare of the body. A second body under a taken tag — a
// corrupted copy or a real collision — is still a message of its own: it
// is in recs but not in byTag, and clash, keyed by the full identity,
// finds it; clash stays nil until the first such body arrives.
type msgTable struct {
	recs  []*msgRec
	byTag ident.Index
	clash map[wire.MsgID]*msgRec
}

// tagAt is byTag's view of the records.
func (t *msgTable) tagAt(i int) ident.Tag { return t.recs[i].id.Tag }

// first returns the record holding tag's index entry, nil if none does.
func (t *msgTable) first(tag ident.Tag) *msgRec {
	if i := t.byTag.Find(tag, t.tagAt); i >= 0 {
		return t.recs[i]
	}
	return nil
}

// lookup returns the record of (body, tag), nil if the process has never
// heard of the message. Comparing string(body) in place, like indexing
// with it, makes no string: a hit allocates nothing.
func (t *msgTable) lookup(tag ident.Tag, body []byte) *msgRec {
	if rec := t.first(tag); rec == nil || rec.id.Body == string(body) {
		return rec
	}
	return t.clash[wire.MsgID{Tag: tag, Body: string(body)}]
}

// find is lookup for an identity already in MsgID form.
func (t *msgTable) find(id wire.MsgID) *msgRec {
	if rec := t.first(id.Tag); rec == nil || rec.id.Body == id.Body {
		return rec
	}
	return t.clash[id]
}

// insert files a record whose identity the table does not hold yet.
func (t *msgTable) insert(rec *msgRec) {
	t.recs = append(t.recs, rec)
	if t.first(rec.id.Tag) == nil {
		t.byTag.Insert(rec.id.Tag, len(t.recs)-1, t.tagAt)
		return
	}
	if t.clash == nil {
		t.clash = make(map[wire.MsgID]*msgRec)
	}
	t.clash[rec.id] = rec
}

// grow makes room for n more records: the presize of a restore.
func (t *msgTable) grow(n int) {
	t.recs = slices.Grow(t.recs, n)
	t.byTag.Grow(n, t.tagAt)
}

// all yields every record, in the order of first contact.
func (t *msgTable) all(yield func(*msgRec) bool) {
	for _, rec := range t.recs {
		if !yield(rec) {
			return
		}
	}
}

func (t *msgTable) len() int { return len(t.recs) }

// common holds the state shared by both algorithms.
type common struct {
	cfg      Config
	tags     *ident.Source
	recs     msgTable
	msgs     msgSet
	wireSent uint64
	// tr is the lifecycle tracer (DESIGN.md §14). nil — the zero value —
	// is OFF: every emit site guards on the pointer, so an untraced run
	// pays one branch and allocates nothing. The tracer is observability
	// state only: it never feeds back into guard decisions, is not part
	// of snapshots or fingerprints, and a traced run's Steps are
	// bit-identical to an untraced one's.
	tr *obs.Tracer
}

func newCommon(cfg Config, tags *ident.Source) common {
	return common{cfg: cfg, tags: tags}
}

// record returns the record of a wire message's (m, tag), creating it on
// first contact.
func (c *common) record(tag ident.Tag, body []byte) *msgRec {
	if rec := c.recs.lookup(tag, body); rec != nil {
		return rec
	}
	return c.firstContact(tag, body)
}

// firstContact is record's miss path, kept out of line: the allocations
// of a first contact (the identity's body string, the record) then belong
// to a function of their own instead of being inlined, through record,
// into Receive — whose per-duplicate path internal/analysis pins as
// letting nothing escape.
//
//go:noinline
func (c *common) firstContact(tag ident.Tag, body []byte) *msgRec {
	return c.recordID(wire.NewMsgID(tag, body))
}

// recordID is record for an identity already in MsgID form.
func (c *common) recordID(id wire.MsgID) *msgRec {
	rec := c.recs.find(id)
	if rec == nil {
		rec = &msgRec{id: id, slot: -1}
		c.recs.insert(rec)
	}
	return rec
}

// Broadcast implements URB_broadcast(m) (lines 4-6 of both listings):
// draw a fresh tag and insert (m, tag) into MSG_i. Transmission happens
// in Task 1 (or immediately under the EagerFirstSend ablation).
func (c *common) Broadcast(body []byte) (wire.MsgID, Step) {
	var out Step
	rec := c.recordID(wire.NewMsgID(c.tags.Next(), body))
	c.msgs.add(rec)
	rec.saw = true
	if c.tr != nil {
		c.tr.Broadcast(rec.id)
	}
	out.Durable = append(out.Durable,
		DurableEvent{Kind: WALBroadcast, ID: rec.id, Draws: c.tags.Draws()})
	if c.cfg.EagerFirstSend {
		c.send(&out, wire.NewMsg(rec.id))
	}
	return rec.id, out
}

// SetTracer installs (or, with nil, removes) the lifecycle tracer. Part
// of the obs.Traceable contract; hosts call it before the first step.
func (c *common) SetTracer(t *obs.Tracer) { c.tr = t }

// send accounts for and returns a broadcast.
func (c *common) send(out *Step, m wire.Message) {
	c.wireSent++
	if c.tr != nil && m.Kind == wire.KindMsg {
		c.tr.FirstSendMsg(m)
	}
	out.Broadcasts = append(out.Broadcasts, m)
}

// deliverOnce appends a delivery if rec has not been delivered yet.
func (c *common) deliverOnce(out *Step, rec *msgRec) bool {
	if rec.delivered {
		return false
	}
	rec.delivered = true
	out.Deliveries = append(out.Deliveries, Delivery{ID: rec.id, Fast: !rec.saw})
	return true
}

// commonStats fills in the sizes the shared state determines, in one pass
// over the table.
func (c *common) commonStats() Stats {
	st := Stats{MsgSet: c.msgs.len(), WireSent: c.wireSent}
	for rec := range c.recs.all {
		if rec.pinned {
			st.MyAcks++
		}
		if rec.delivered {
			st.Delivered++
		}
	}
	return st
}

// HasDelivered reports whether id has been URB-delivered locally.
func (c *common) HasDelivered(id wire.MsgID) bool {
	rec := c.recs.find(id)
	return rec != nil && rec.delivered
}

// KnowsMsg reports whether id is currently in MSG_i — for Algorithm 2,
// false again once retired (test hook).
func (c *common) KnowsMsg(id wire.MsgID) bool {
	rec := c.recs.find(id)
	return rec != nil && rec.slot >= 0
}
