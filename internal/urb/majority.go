package urb

import (
	"fmt"

	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Majority is Algorithm 1: uniform reliable broadcast in
// AAS_F[n,t | t < n/2] — anonymous processes, fair lossy channels, no
// failure detector, assuming a majority of correct processes.
//
// The idea (Section III): every process retransmits every message it
// knows forever (Task 1). On each reception of (MSG, m, tag) a process
// (re-)broadcasts an acknowledgement (ACK, m, tag, tag_ack) whose tag_ack
// is a random value drawn once per (m, tag) and then pinned in MY_ACK.
// Distinct tag_acks therefore count distinct processes without revealing
// identities, and a process URB-delivers m once it has collected a
// majority (> n/2) of distinct tag_acks for it: with t < n/2 at least one
// of those ackers is correct, and that correct process retransmits m
// forever, so every correct process eventually receives and delivers m.
//
// The algorithm is non-quiescent: MSG_i never shrinks and Task 1 never
// stops. Experiment F1 measures exactly that.
type Majority struct {
	common
	n         int
	threshold int
	// ackOrder lists the records holding an ALL_ACK_i entry (msgRec.acks)
	// in first-seen order, so iteration is deterministic.
	ackOrder []*msgRec
}

var _ Process = (*Majority)(nil)

// NewMajority builds an Algorithm 1 process for a system of n processes.
// The process knows n (the paper's deliver guard "majority of (m,tag,−)"
// needs it) but has no identity. tags must be a per-process stream.
func NewMajority(n int, tags *ident.Source, cfg Config) *Majority {
	return NewMajorityThreshold(n, n/2+1, tags, cfg)
}

// NewMajorityThreshold builds an Algorithm 1 process whose delivery guard
// requires the given number of distinct tag_acks instead of the strict
// majority n/2+1.
//
// Lowering the threshold below the majority is UNSAFE — it is provided to
// reenact the Theorem 2 impossibility construction (experiment T2), where
// a hypothetical algorithm delivering on evidence from only ⌈n/2⌉
// processes violates uniform agreement when those processes all crash and
// the fair lossy channels lose their finitely many copies.
func NewMajorityThreshold(n, threshold int, tags *ident.Source, cfg Config) *Majority {
	if n < 1 {
		panic(fmt.Sprintf("urb: invalid system size %d", n))
	}
	if threshold < 1 || threshold > n {
		panic(fmt.Sprintf("urb: invalid threshold %d for n=%d", threshold, n))
	}
	return &Majority{
		common:    newCommon(cfg, tags),
		n:         n,
		threshold: threshold,
	}
}

// Receive implements Process over ReceiveTo.
//
//urb:hotpath
func (p *Majority) Receive(m wire.Message) Step {
	var out Step
	p.ReceiveTo(&out, &m)
	return out
}

// ReceiveTo resolves the message's record, then dispatches on the kind
// (lines 7-27), appending the replies, deliveries and durable events to
// out. It only appends: a host passes the Step it is filling, so a
// reception allocates no Step of its own.
//
//urb:hotpath
func (p *Majority) ReceiveTo(out *Step, m *wire.Message) {
	//urbvet:partial Algorithm 1 speaks MSG/ACK only; delta and beat kinds are other layers' traffic
	switch m.Kind {
	case wire.KindMsg:
		p.receiveMsg(out, p.record(m.Tag, m.Body))
	case wire.KindAck:
		p.receiveAck(out, p.record(m.Tag, m.Body), m.AckTag)
	default:
		// Unknown kinds (e.g. failure detector heartbeats multiplexed on
		// the same mesh) are not for us; ignore.
	}
}

// receiveMsg handles (MSG, m, tag) (lines 7-17).
func (p *Majority) receiveMsg(out *Step, rec *msgRec) {
	// RECV traces the first MSG copy only: retransmissions are the fair
	// lossy channel's business, not the message lifecycle's.
	if p.tr != nil && !rec.saw {
		p.tr.Recv(rec.id, wire.KindMsg)
	}
	rec.saw = true
	if p.msgs.add(rec) && p.cfg.EagerFirstSend {
		// First time we learn of m from the network: start retransmitting
		// (Task 1 covers it; eager mode also forwards at once).
		p.send(out, wire.NewMsg(rec.id))
	}
	if !rec.pinned {
		// First reception: draw the unique tag_ack for (m, tag) and pin
		// it (lines 14-15). It must never change afterwards; uniform
		// integrity counts distinct ackers by distinct tag_acks — which
		// is also why the pin is a durable event: a recovered process
		// acking under a fresh tag_ack would count as a phantom second
		// acker.
		rec.ack, rec.pinned = p.tags.Next(), true
		out.Durable = append(out.Durable,
			DurableEvent{Kind: WALPin, ID: rec.id, Ack: rec.ack, Draws: p.tags.Draws()})
	}
	// Acknowledge every reception (lines 11-12 / 16): retransmissions of
	// the ACK are what overcome ACK loss on fair lossy channels.
	p.send(out, wire.NewAck(rec.id, rec.ack))
}

// receiveAck handles (ACK, m, tag, tag_ack) (lines 18-27).
func (p *Majority) receiveAck(out *Step, rec *msgRec, ackTag ident.Tag) {
	if rec.acks == nil {
		rec.acks = ident.NewSet()
		p.ackOrder = append(p.ackOrder, rec)
	}
	before := rec.acks.Len()
	rec.acks.Add(ackTag) // idempotent (lines 19-21)
	// ACK receptions are traced solely through their ACK_PROGRESS
	// evidence step, and only when the tag_ack is new: fair lossy
	// channels are overcome by retransmission, so per-frame ACK volume
	// is unbounded and duplicates carry no lifecycle information — a
	// per-frame emit here is what liverun's TestLiveClusterTracing
	// catches (events ≤ wire messages sent). MSG receptions keep their
	// per-first-copy RECV.
	if p.tr != nil && rec.acks.Len() != before {
		p.tr.AckProgress(rec.id, ident.Tag{}, rec.acks.Len(), p.threshold)
	}
	p.checkDeliver(out, rec)
}

// checkDeliver applies the guard of lines 22-26: a majority of distinct
// tag_acks — strictly more than n/2 (or the configured threshold for the
// impossibility reenactment).
func (p *Majority) checkDeliver(out *Step, rec *msgRec) {
	if rec.acks != nil && rec.acks.Len() >= p.threshold {
		p.deliverOnce(out, rec)
	}
}

// Tick is one pass of Task 1 (lines 28-32): retransmit every message in
// MSG_i. The set never shrinks, which is why Algorithm 1 is not
// quiescent — and why the pass can walk MSG_i in place: nothing is
// removed under it. The Step's Broadcasts slice, sized up front, is the
// pass's only allocation: wire.NewMsg shares each record's body bytes.
func (p *Majority) Tick() Step {
	var out Step
	if n := p.msgs.len(); n > 0 {
		out.Broadcasts = make([]wire.Message, 0, n)
	}
	for _, rec := range p.msgs.order {
		if rec != nil {
			p.send(&out, wire.NewMsg(rec.id))
		}
	}
	if p.cfg.CheckOnTick {
		for _, rec := range p.ackOrder {
			p.checkDeliver(&out, rec)
		}
	}
	return out
}

// Stats implements Process.
func (p *Majority) Stats() Stats {
	st := p.commonStats()
	for _, rec := range p.ackOrder {
		st.AckEntries += rec.acks.Len()
	}
	return st
}

// AckCount reports how many distinct tag_acks have been seen for id
// (test hook).
func (p *Majority) AckCount(id wire.MsgID) int {
	if rec := p.recs.find(id); rec != nil && rec.acks != nil {
		return rec.acks.Len()
	}
	return 0
}

// Explain is the stall explainer (DESIGN.md §14): it reads the live
// delivery evidence for id and reports exactly what the majority guard
// is still missing. Call it on the goroutine hosting the process.
func (p *Majority) Explain(id wire.MsgID) obs.Explanation {
	ex := obs.Explanation{ID: id, Algo: "majority", Need: p.threshold}
	rec := p.recs.find(id)
	if rec == nil {
		return ex
	}
	ex.Delivered = rec.delivered
	if rec.acks != nil {
		ex.Ackers = rec.acks.Len()
	}
	ex.Known = ex.Ackers > 0 || rec.slot >= 0 || rec.saw
	return ex
}
