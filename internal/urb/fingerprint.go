package urb

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// Fingerprinter is implemented by process types that can produce a
// canonical, behaviour-complete digest of their state: two instances with
// equal fingerprints react identically to any future input sequence. The
// bounded model checker (internal/explore) uses fingerprints to merge
// states reached by different interleavings.
//
// The text renders every tag through ident.Tag.String, which keeps only
// the low 32 bits of each half. Equal fingerprints therefore imply equal
// behaviour only up to tags that agree in those 64 bits: two states whose
// tags differ only in the high bits print alike.
type Fingerprinter interface {
	Fingerprint() string
}

var (
	_ Fingerprinter = (*Majority)(nil)
	_ Fingerprinter = (*Quiescent)(nil)
	_ Fingerprinter = (*HeartbeatHost)(nil)
)

// fpEmitter writes a process's fingerprint text into a sink. Each stack
// has one emitter: Fingerprint collects what it writes, snapDigest hashes
// it as it is written, so the text and the digest cannot drift apart.
type fpEmitter interface {
	fingerprint(s *fpSink)
}

// fingerprintText collects an emitter's text.
func fingerprintText(e fpEmitter) string {
	var b strings.Builder
	e.fingerprint(&fpSink{text: &b})
	return b.String()
}

// Fingerprint implements Fingerprinter.
func (p *Majority) Fingerprint() string { return fingerprintText(p) }

// Fingerprint implements Fingerprinter.
func (p *Quiescent) Fingerprint() string { return fingerprintText(p) }

// Fingerprint digests the full heartbeat stack: the host's own state plus
// the wrapped algorithm's fingerprint. Canonical in the same sense as the
// algorithm fingerprints (snapshot round-trips preserve it).
func (h *HeartbeatHost) Fingerprint() string { return fingerprintText(h) }

// fpSink receives fingerprint text. With text set it collects the text;
// otherwise it folds every byte into the FNV-1a state h. It is one type
// with two modes, not an interface with two implementations, because a
// slice passed through an interface call escapes: the stack buffers tag
// and dec render into would become an allocation per field. table is the
// process's record table in text order; the other slices are sort
// buffers reused across the entries of one emitter call. A sink lives
// for that call only, so nothing it holds outlives it.
type fpSink struct {
	text *strings.Builder
	h    fnv64a

	table  []*msgRec
	recs   []*msgRec
	ackers []fpAcker
	tags   []ident.Tag
}

func (s *fpSink) str(v string) {
	if s.text != nil {
		s.text.WriteString(v)
		return
	}
	s.h.writeString(v)
}

func (s *fpSink) raw(b []byte) {
	if s.text != nil {
		s.text.Write(b)
		return
	}
	s.h.write(b)
}

func (s *fpSink) char(c byte) {
	if s.text != nil {
		s.text.WriteByte(c)
		return
	}
	s.h.writeByte(c)
}

func (s *fpSink) section(name string) {
	s.char('|')
	s.str(name)
	s.char(':')
}

func (s *fpSink) tag(t ident.Tag) {
	var b [16]byte
	s.raw(t.AppendHex(b[:0]))
}

func (s *fpSink) dec(v uint64) {
	var b [20]byte
	s.raw(strconv.AppendUint(b[:0], v, 10))
}

func (s *fpSink) decInt(v int64) {
	var b [20]byte
	s.raw(strconv.AppendInt(b[:0], v, 10))
}

func (s *fpSink) flag(v bool) { s.str(strconv.FormatBool(v)) }

// key writes a message identity's canonical form, tag~body.
func (s *fpSink) key(id wire.MsgID) {
	s.tag(id.Tag)
	s.char('~')
	s.str(id.Body)
}

// tagSet writes a set's tags comma-separated in the order of their text.
// Tags that render alike write the same text, so their order is moot.
func (s *fpSink) tagSet(tags []ident.Tag) {
	buf := append(s.tags[:0], tags...)
	slices.SortFunc(buf, func(a, b ident.Tag) int { return cmp.Compare(a.Rendered(), b.Rendered()) })
	for i, t := range buf {
		if i > 0 {
			s.char(',')
		}
		s.tag(t)
	}
	s.tags = buf
}

// writeSorted sorts entries into the order of their text and writes them
// separated by sep. Every entry's text starts with the hex of its lead
// tag, so entries are ordered by the 64 bits that hex renders; only
// entries whose lead tags render alike are compared by their full text,
// rendered for the comparison. That reproduces a plain sort of the
// rendered strings, separator bytes and prefix bodies included.
func writeSorted[T any](s *fpSink, sep byte, entries []T, lead func(T) ident.Tag, emit func(*fpSink, T)) {
	slices.SortFunc(entries, func(a, b T) int {
		if c := cmp.Compare(lead(a).Rendered(), lead(b).Rendered()); c != 0 {
			return c
		}
		return strings.Compare(entryText(a, emit), entryText(b, emit))
	})
	for i, e := range entries {
		if i > 0 {
			s.char(sep)
		}
		emit(s, e)
	}
}

// entryText renders one entry on a sink of its own.
func entryText[T any](e T, emit func(*fpSink, T)) string {
	var b strings.Builder
	emit(&fpSink{text: &b}, e)
	return b.String()
}

func recTag(rec *msgRec) ident.Tag { return rec.id.Tag }

func emitKey(s *fpSink, rec *msgRec) { s.key(rec.id) }

// writeRecs writes the records keep selects — one of the paper's sets,
// read off the table — as emit renders them, in text order.
func (s *fpSink) writeRecs(keep func(*msgRec) bool, emit func(*fpSink, *msgRec)) {
	recs := recsWhere(s.recs[:0], s.table, keep)
	writeSorted(s, ',', recs, recTag, emit)
	s.recs = recs
}

// commonFingerprint writes the state shared by both algorithms. It sorts
// the whole table once into the text order of its message identities
// (fpSink.key): each set read off it reaches writeSorted in order, but for
// entries whose tags render alike.
func (c *common) commonFingerprint(s *fpSink) {
	table := make([]*msgRec, 0, c.recs.len())
	for rec := range c.recs.all {
		table = append(table, rec)
	}
	slices.SortFunc(table, func(a, b *msgRec) int {
		if c := cmp.Compare(a.id.Tag.Rendered(), b.id.Tag.Rendered()); c != 0 {
			return c
		}
		return strings.Compare(a.id.Body, b.id.Body)
	})
	s.table = table
	s.recs = make([]*msgRec, 0, len(table))
	s.section("draws")
	s.dec(c.tags.Draws())
	s.section("msgs")
	live := c.msgs.appendLive(s.recs[:0])
	writeSorted(s, ',', live, recTag, emitKey)
	s.section("mine")
	s.writeRecs((*msgRec).isPinned, func(s *fpSink, rec *msgRec) {
		s.key(rec.id)
		s.char('=')
		s.tag(rec.ack)
	})
	s.section("delivered")
	s.writeRecs((*msgRec).isDelivered, emitKey)
	s.section("saw")
	s.writeRecs((*msgRec).isSaw, emitKey)
}

func (p *Majority) fingerprint(s *fpSink) {
	s.str("majority")
	s.section("n")
	s.decInt(int64(p.n))
	s.char('/')
	s.decInt(int64(p.threshold))
	p.commonFingerprint(s)
	s.section("acks")
	recs := append(s.recs[:0], p.ackOrder...)
	writeSorted(s, ',', recs, recTag, func(s *fpSink, rec *msgRec) {
		s.key(rec.id)
		s.str("={")
		s.tagSet(rec.acks.Slice())
		s.char('}')
	})
}

// fpAcker is one entry of a message's acker table.
type fpAcker struct {
	tag  ident.Tag
	view *ackerView
}

func ackerTag(a fpAcker) ident.Tag { return a.tag }

func emitAcker(s *fpSink, a fpAcker) {
	s.tag(a.tag)
	s.char('@')
	s.dec(a.view.epoch)
	s.char('/')
	s.flag(a.view.synced)
	s.str("->{")
	s.tagSet(a.view.labels.Slice())
	s.char('}')
}

func emitAckState(s *fpSink, rec *msgRec) {
	s.key(rec.id)
	s.str("=[")
	st := rec.st
	ackers := s.ackers[:0]
	for i, acker := range st.ackers.Keys() {
		ackers = append(ackers, fpAcker{tag: acker, view: st.ackers.At(i)})
	}
	writeSorted(s, ';', ackers, ackerTag, emitAcker)
	s.ackers = ackers
	s.char(']')
}

// fpReq is one pending resync request.
type fpReq struct {
	rec   *msgRec
	acker ident.Tag
	tick  uint64
}

func reqTag(r fpReq) ident.Tag { return r.rec.id.Tag }

func emitReq(s *fpSink, r fpReq) {
	s.key(r.rec.id)
	s.char('/')
	s.tag(r.acker)
	s.char('=')
	s.dec(r.tick)
}

func (p *Quiescent) fingerprint(s *fpSink) {
	s.str("quiescent")
	p.commonFingerprint(s)
	s.section("retired")
	s.decInt(int64(p.retired))
	s.section("acks")
	recs := append(s.recs[:0], p.ackOrder...)
	writeSorted(s, ',', recs, recTag, emitAckState)
	// The delta-path rate limiters and the sender ledger are keyed to
	// the tick counter; folding them in unconditionally would needlessly
	// split states that behave identically (the monotonic tick counter
	// alone would make every state unique). But the gate must be on the
	// *state*, not the config flag: reception of delta frames and resync
	// answering are always on, so even a full-set-mode process can hold
	// a populated ledger or pending request limiters — and two states
	// differing only in a still-owed resync must not merge.
	if !p.holdsDeltaState() {
		return
	}
	s.section("ticks")
	s.dec(p.ticks)
	s.section("floor")
	s.dec(p.epochFloor)
	s.section("ledger")
	s.writeRecs((*msgRec).hasLedger, func(s *fpSink, rec *msgRec) {
		st := rec.send
		s.key(rec.id)
		s.char('@')
		s.dec(st.epoch)
		s.char('/')
		s.dec(st.reAckTick)
		s.char('/')
		s.dec(st.snapTick)
		s.str("={")
		s.tagSet(st.sent.Slice())
		s.char('}')
	})
	s.section("reqs")
	var reqs []fpReq
	for _, rec := range p.ackOrder {
		for acker, tick := range rec.st.reqTick {
			reqs = append(reqs, fpReq{rec: rec, acker: acker, tick: tick})
		}
	}
	writeSorted(s, ',', reqs, reqTag, emitReq)
}

// holdsDeltaState reports whether the delta path has left state behind:
// the mode is on, the process has recovered, or it holds a ledger entry
// or a pending resync request.
func (p *Quiescent) holdsDeltaState() bool {
	if p.cfg.DeltaAcks || p.epochFloor > 0 {
		return true
	}
	for _, rec := range p.ackOrder {
		if len(rec.st.reqTick) > 0 {
			return true
		}
	}
	for rec := range p.recs.all {
		if rec.hasLedger() {
			return true
		}
	}
	return false
}

func heardLabel(e HeardLabel) ident.Tag { return e.Label }

func (h *HeartbeatHost) fingerprint(s *fpSink) {
	s.str("heartbeat-host")
	s.section("label")
	s.tag(h.hb.Label())
	s.section("ticks")
	s.decInt(int64(h.tickCount))
	s.section("beats")
	s.dec(h.beatsSent)
	s.section("beatreqs")
	s.dec(h.beatReqsSent)
	s.section("beatstream")
	s.dec(uint64(h.beatEpoch))
	s.char('/')
	s.flag(h.beatSnapSent)
	// The receiver-side beat stream tables and the per-tick request
	// limiter are deliberately excluded: they are soft wire-level caches
	// (losing them costs one BEATREQ/snapshot exchange, which the
	// protocol self-heals), kept out of snapshots for the same reason.
	s.section("heard")
	writeSorted(s, ',', h.hb.Heard(), heardLabel, func(s *fpSink, e HeardLabel) {
		s.tag(e.Label)
		s.char('@')
		s.decInt(e.At)
	})
	s.section("inner")
	h.inner.fingerprint(s)
}
