package urb

// The reference fingerprint: the emitters that rendered every state's
// canonical text through fmt and sorted strings before the streaming
// emitters of fingerprint.go replaced them. The text and the digest they
// define are the contract (golden vectors, snapshot trailers, explorer
// state merging); TestFingerprintMatchesReference holds the streaming
// emitters to them byte for byte. Kept as they were, apart from the
// ref prefixes and Tag.String inlined as refTag.

import (
	"fmt"
	"sort"
	"strings"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// refTag is Tag.String as it was rendered through fmt.
func refTag(t ident.Tag) string {
	return fmt.Sprintf("%08x%08x", t.Hi&0xffffffff, t.Lo&0xffffffff)
}

// textDigest is snapDigest over a fingerprint text: FNV-1a over the
// payload, then the text.
func textDigest(payload []byte, fp string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range payload {
		h = (h ^ uint64(b)) * prime64
	}
	for i := 0; i < len(fp); i++ {
		h = (h ^ uint64(fp[i])) * prime64
	}
	return h
}

// refFpWriter accumulates canonical key/value fragments.
type refFpWriter struct {
	b strings.Builder
}

func (w *refFpWriter) section(name string) { fmt.Fprintf(&w.b, "|%s:", name) }

// refFpKey is a message identity's canonical text form.
func refFpKey(id wire.MsgID) string { return refTag(id.Tag) + "~" + id.Body }

func (w *refFpWriter) sortedIDs(recs []*msgRec) {
	keys := make([]string, len(recs))
	for i, rec := range recs {
		keys[i] = refFpKey(rec.id)
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
}

func (w *refFpWriter) sortedTags(tags []ident.Tag) {
	keys := make([]string, len(tags))
	for i, t := range tags {
		keys[i] = refTag(t)
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
}

// refCommonFingerprint digests the state shared by both algorithms.
func (c *common) refCommonFingerprint(w *refFpWriter) {
	w.section("draws")
	fmt.Fprintf(&w.b, "%d", c.tags.Draws())
	w.section("msgs")
	w.sortedIDs(c.msgs.appendLive(nil))
	w.section("mine")
	mine := c.sortedRecs((*msgRec).isPinned)
	keys := make([]string, len(mine))
	for i, rec := range mine {
		keys[i] = refFpKey(rec.id) + "=" + refTag(rec.ack)
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	w.section("delivered")
	w.sortedIDs(c.sortedRecs((*msgRec).isDelivered))
	w.section("saw")
	w.sortedIDs(c.sortedRecs((*msgRec).isSaw))
}

func refMajorityFingerprint(p *Majority) string {
	var w refFpWriter
	w.b.WriteString("majority")
	w.section("n")
	fmt.Fprintf(&w.b, "%d/%d", p.n, p.threshold)
	p.refCommonFingerprint(&w)
	w.section("acks")
	keys := make([]string, 0, len(p.ackOrder))
	for _, rec := range p.ackOrder {
		var inner refFpWriter
		inner.sortedTags(rec.acks.Slice())
		keys = append(keys, refFpKey(rec.id)+"={"+inner.b.String()+"}")
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	return w.b.String()
}

func refQuiescentFingerprint(p *Quiescent) string {
	var w refFpWriter
	w.b.WriteString("quiescent")
	p.refCommonFingerprint(&w)
	w.section("retired")
	fmt.Fprintf(&w.b, "%d", p.retired)
	w.section("acks")
	keys := make([]string, 0, len(p.ackOrder))
	for _, rec := range p.ackOrder {
		st := rec.st
		ackers := make([]string, 0, st.ackers.Len())
		for i, acker := range st.ackers.Keys() {
			v := st.ackers.At(i)
			var inner refFpWriter
			inner.sortedTags(v.labels.Slice())
			ackers = append(ackers, fmt.Sprintf("%s@%d/%t->{%s}", refTag(acker), v.epoch, v.synced, inner.b.String()))
		}
		sort.Strings(ackers)
		keys = append(keys, refFpKey(rec.id)+"=["+strings.Join(ackers, ";")+"]")
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
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
			var inner refFpWriter
			inner.sortedTags(st.sent.Slice())
			keys = append(keys, fmt.Sprintf("%s@%d/%d/%d={%s}",
				refFpKey(rec.id), st.epoch, st.reAckTick, st.snapTick, inner.b.String()))
		}
		sort.Strings(keys)
		w.b.WriteString(strings.Join(keys, ","))
		w.section("reqs")
		keys = keys[:0]
		for _, rec := range p.ackOrder {
			for acker, tick := range rec.st.reqTick {
				keys = append(keys, fmt.Sprintf("%s/%s=%d", refFpKey(rec.id), refTag(acker), tick))
			}
		}
		sort.Strings(keys)
		w.b.WriteString(strings.Join(keys, ","))
	}
	return w.b.String()
}

func refHostFingerprint(h *HeartbeatHost) string {
	var w refFpWriter
	w.b.WriteString("heartbeat-host")
	w.section("label")
	w.b.WriteString(refTag(h.hb.Label()))
	w.section("ticks")
	fmt.Fprintf(&w.b, "%d", h.tickCount)
	w.section("beats")
	fmt.Fprintf(&w.b, "%d", h.beatsSent)
	w.section("beatreqs")
	fmt.Fprintf(&w.b, "%d", h.beatReqsSent)
	w.section("beatstream")
	fmt.Fprintf(&w.b, "%d/%t", h.beatEpoch, h.beatSnapSent)
	w.section("heard")
	heard := h.hb.Heard()
	keys := make([]string, len(heard))
	for i, e := range heard {
		keys[i] = fmt.Sprintf("%s@%d", refTag(e.Label), e.At)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.b.WriteString(k)
	}
	w.section("inner")
	w.b.WriteString(refQuiescentFingerprint(h.inner))
	return w.b.String()
}
