package urb

import "anonurb/internal/ident"

// This file is the state discipline of the join protocol (DESIGN.md
// §13): what a joining process keeps, drops and rebases after restoring
// a donor peer's snapshot.
//
// A joiner is NOT a recovered incarnation of the donor. Recovery
// (Restore + ApplyWAL + Rejoin) resumes the *same* anonymous process:
// it must keep its pinned tag_acks so it never acks one message under
// two identities. A joiner is a *different* process bootstrapping from
// the donor's knowledge: if it kept the donor's pins it would ack under
// the donor's tag_acks while the donor — still alive — does the same,
// and receivers would fold two processes' ACK streams into one acker,
// under-counting the acknowledgers exactly where Theorem 2 needs them
// counted. Adopt therefore splits the snapshot in two:
//
//   - Kept: the delivered set (uniformity — the joiner must never
//     re-deliver what the donor's history already delivered through
//     it), the retransmission set MSG_i, sawMsg, and the received-ACK
//     evidence (other processes' claims, which are facts about the
//     network, not about the donor).
//   - Dropped: the donor's tag_ack pins (mine) and its delta-ACK send
//     ledger. The joiner acks under fresh tags drawn from its own
//     stream, opening fresh delta streams receivers have never seen.
//
// The epochs rebase per the crash-recovery incarnation discipline
// (DESIGN.md §9): fresh tag_acks alone already give the joiner
// fresh streams, but the rebase keeps the invariant "restored state
// never continues a stream another incarnation may have advanced"
// uniform across the recover and join paths — one rule, two callers.
type Joiner interface {
	Durable
	// Adopt converts freshly Restored donor state into joiner state.
	// Hosts call it once, after Restore, instead of Rejoin (Adopt
	// subsumes the rebase), before the process goes live.
	Adopt()
}

var (
	_ Joiner = (*Majority)(nil)
	_ Joiner = (*Quiescent)(nil)
	_ Joiner = (*HeartbeatHost)(nil)
)

// adopt is the part of Adopt both algorithms share: it forgets every
// pinned tag_ack (the donor's MY_ACK_i) and traces ADOPT for every
// message the joiner takes as already delivered.
func (c *common) adopt() {
	for rec := range c.recs.all {
		rec.ack, rec.pinned = ident.Tag{}, false
		if rec.delivered && c.tr != nil {
			c.tr.Adopt(rec.id)
		}
	}
}

// Adopt implements Joiner. Algorithm 1's ACKs carry no sequencing, so
// dropping the donor's pins is the whole discipline: the joiner re-acks
// everything still circulating under its own fresh tags, and receivers
// count it as the new process it is.
func (p *Majority) Adopt() {
	p.adopt()
}

// Adopt implements Joiner: keep the donor's delivered set and received
// ACK evidence, drop its acker identity, rebase the delta-ACK streams.
func (p *Quiescent) Adopt() {
	p.adopt()
	// Rejoin drops the donor's send ledger and lifts the epoch floor
	// above anything the donor's incarnation has sent — the joiner's
	// first ACK per message opens a fresh stream under a fresh tag_ack.
	p.Rejoin()
	// Everything must be re-evaluated against the joiner's own detector
	// on the first Tick (Restore already forces this; Adopt keeps the
	// guarantee independent of Restore's internals).
	p.viewsKnown = false
}

// Adopt implements Joiner. The detector label is where join and recover
// part ways most visibly: Restore adopts the snapshot's label because a
// *recovered* process is the same anonymous identity, but a joiner
// announcing the donor's label would make one label appear alive from
// two places (and inherit the donor's crash, should it come). Adopt
// restores the factory-fresh label the host drew at construction, keeps
// the donor's heard map as bootstrap liveness knowledge (timestamps are
// conservative — stale until the next beat refreshes them), and re-keys
// the beat stream: the ref derives from the label, so receivers see a
// brand-new stream, announced by snapshot on the first beat.
func (h *HeartbeatHost) Adopt() {
	h.hb.Relabel(h.born)
	h.rebaseBeatStream()
	h.inner.Adopt()
}
