package urb

import (
	"fmt"
	"sort"
	"strings"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// Fingerprinter is implemented by process types that can produce a
// canonical, behaviour-complete digest of their state: two instances with
// equal fingerprints react identically to any future input sequence. The
// bounded model checker (internal/explore) uses fingerprints to merge
// states reached by different interleavings.
type Fingerprinter interface {
	Fingerprint() string
}

var (
	_ Fingerprinter = (*Majority)(nil)
	_ Fingerprinter = (*Quiescent)(nil)
)

// fpWriter accumulates canonical key/value fragments.
type fpWriter struct {
	b strings.Builder
}

func (w *fpWriter) section(name string) { fmt.Fprintf(&w.b, "|%s:", name) }

// fpKey is a message identity's canonical text form.
func fpKey(id wire.MsgID) string { return id.Tag.String() + "~" + id.Body }

func (w *fpWriter) sortedIDs(recs []*msgRec) {
	keys := make([]string, len(recs))
	for i, rec := range recs {
		keys[i] = fpKey(rec.id)
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
}

func (w *fpWriter) sortedTags(tags []ident.Tag) {
	keys := make([]string, len(tags))
	for i, t := range tags {
		keys[i] = t.String()
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
}

// commonFingerprint digests the state shared by both algorithms.
func (c *common) commonFingerprint(w *fpWriter) {
	w.section("draws")
	fmt.Fprintf(&w.b, "%d", c.tags.Draws())
	w.section("msgs")
	w.sortedIDs(c.msgs.appendLive(nil))
	w.section("mine")
	mine := c.sortedRecs((*msgRec).isPinned)
	keys := make([]string, len(mine))
	for i, rec := range mine {
		keys[i] = fpKey(rec.id) + "=" + rec.ack.String()
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	w.section("delivered")
	w.sortedIDs(c.sortedRecs((*msgRec).isDelivered))
	w.section("saw")
	w.sortedIDs(c.sortedRecs((*msgRec).isSaw))
}

// Fingerprint implements Fingerprinter.
func (p *Majority) Fingerprint() string {
	var w fpWriter
	w.b.WriteString("majority")
	w.section("n")
	fmt.Fprintf(&w.b, "%d/%d", p.n, p.threshold)
	p.commonFingerprint(&w)
	w.section("acks")
	keys := make([]string, 0, len(p.ackOrder))
	for _, rec := range p.ackOrder {
		var inner fpWriter
		inner.sortedTags(rec.acks.Slice())
		keys = append(keys, fpKey(rec.id)+"={"+inner.b.String()+"}")
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	return w.b.String()
}

// Fingerprint implements Fingerprinter.
func (p *Quiescent) Fingerprint() string {
	var w fpWriter
	w.b.WriteString("quiescent")
	p.commonFingerprint(&w)
	w.section("retired")
	fmt.Fprintf(&w.b, "%d", p.retired)
	w.section("acks")
	keys := make([]string, 0, len(p.ackOrder))
	for _, rec := range p.ackOrder {
		st := rec.st
		ackers := make([]string, 0, st.ackers.Len())
		for i, acker := range st.ackers.Keys() {
			v := st.ackers.At(i)
			var inner fpWriter
			inner.sortedTags(v.labels.Slice())
			ackers = append(ackers, fmt.Sprintf("%s@%d/%t->{%s}", acker, v.epoch, v.synced, inner.b.String()))
		}
		sort.Strings(ackers)
		keys = append(keys, fpKey(rec.id)+"=["+strings.Join(ackers, ";")+"]")
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	// The delta-path rate limiters and the sender ledger are keyed to
	// the tick counter; folding them in unconditionally would needlessly
	// split states that behave identically (the monotonic tick counter
	// alone would make every state unique). But the gate must be on the
	// *state*, not the config flag: reception of delta frames and resync
	// answering are always on, so even a full-set-mode process can hold
	// a populated ledger or pending request limiters — and two states
	// differing only in a still-owed resync must not merge.
	ledger := p.sortedRecs((*msgRec).hasLedger)
	deltaState := p.cfg.DeltaAcks || len(ledger) > 0 || p.epochFloor > 0
	if !deltaState {
		for _, rec := range p.ackOrder {
			if len(rec.st.reqTick) > 0 {
				deltaState = true
				break
			}
		}
	}
	if deltaState {
		w.section("ticks")
		fmt.Fprintf(&w.b, "%d", p.ticks)
		w.section("floor")
		fmt.Fprintf(&w.b, "%d", p.epochFloor)
		w.section("ledger")
		keys = keys[:0]
		for _, rec := range ledger {
			st := rec.send
			var inner fpWriter
			inner.sortedTags(st.sent.Slice())
			keys = append(keys, fmt.Sprintf("%s@%d/%d/%d={%s}",
				fpKey(rec.id), st.epoch, st.reAckTick, st.snapTick, inner.b.String()))
		}
		sort.Strings(keys)
		w.b.WriteString(strings.Join(keys, ","))
		w.section("reqs")
		keys = keys[:0]
		for _, rec := range p.ackOrder {
			for acker, tick := range rec.st.reqTick {
				keys = append(keys, fmt.Sprintf("%s/%s=%d", fpKey(rec.id), acker, tick))
			}
		}
		sort.Strings(keys)
		w.b.WriteString(strings.Join(keys, ","))
	}
	return w.b.String()
}
