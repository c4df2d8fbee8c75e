package urb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"anonurb/internal/codec"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// This file is the durable-state surface of the algorithms (DESIGN.md §9):
// a canonical, versioned binary codec for process state — the sibling of
// internal/wire, but for state instead of frames — plus the write-ahead
// events a persisting host logs between checkpoints.
//
// The paper's model is crash-stop; crash-recovery is a deliberate
// extension (in the spirit of the self-stabilizing URB line of work, see
// PAPERS.md): a process that restarts from its store must forget nothing
// it URB-delivered (uniformity across restarts) and must keep using the
// tag_acks it already pinned (a fresh tag_ack for an already-acked
// message would count as a second, phantom acker at receivers — exactly
// the over-counting the Theorem 2 construction exploits). Snapshots carry
// the full state machine; the WAL carries the three transitions that must
// never be lost between checkpoints: deliveries, tag_ack pins and local
// broadcasts.

// Snapshotter is implemented by process types whose full state can be
// exported to and rebuilt from the canonical binary snapshot form.
// Restore must be called on a freshly constructed process (same
// constructor parameters, a tag Source at stream position zero); it
// verifies the embedded fingerprint digest after rebuilding, so a
// corrupted snapshot that survives the structural checks still fails.
type Snapshotter interface {
	// Snapshot returns the canonical binary encoding of the full process
	// state. Two calls on the same state return identical bytes.
	Snapshot() []byte
	// Restore rebuilds the process state from a Snapshot. The process's
	// tag Source is fast-forwarded to the snapshot's stream position.
	Restore(data []byte) error
}

// Durable is the contract a crash-recovery host needs from an algorithm:
// the live Process surface, snapshot export/import, WAL replay, and the
// post-replay incarnation step.
type Durable interface {
	Process
	Snapshotter
	// ApplyWAL replays one write-ahead record into the state machine, in
	// the order the host logged them after the snapshot being recovered.
	ApplyWAL(rec DurableEvent) error
	// Rejoin marks the recovered state as a new incarnation. Hosts call
	// it once, after Restore and WAL replay, before the process goes
	// live. Restore alone reproduces the checkpointed state exactly —
	// but the window between the checkpoint and the crash is lost, and
	// state that *numbers* an outbound stream (the delta-ACK epochs)
	// must never fall behind what the previous incarnation already put
	// on the wire: receivers would discard the recovered process's ACKs
	// as stale, silently and forever. Rejoin abandons such streams and
	// rebases them above an epoch floor that dominates every epoch the
	// previous incarnation can have sent (receivers heal through the
	// ordinary gap→resync→snapshot path). A no-op for Algorithm 1, whose
	// ACKs carry no sequencing.
	Rejoin()
}

var (
	_ Durable = (*Majority)(nil)
	_ Durable = (*Quiescent)(nil)
	_ Durable = (*HeartbeatHost)(nil)
)

// WALKind discriminates write-ahead records.
type WALKind uint8

const (
	// WALDeliver records one URB-delivery: the uniformity-critical event.
	// A recovered process must never re-deliver it and must keep
	// retransmitting the message until the algorithm's own rules stop.
	WALDeliver WALKind = 1
	// WALPin records the pinning of a tag_ack to a message (first MSG
	// reception). Replay reuses the pinned tag instead of drawing a fresh
	// one, so a recovered process never acks one message under two
	// identities.
	WALPin WALKind = 2
	// WALBroadcast records a local URB_broadcast: the message must keep
	// disseminating across the restart (validity in the crash-recovery
	// reading, where a recovered process counts as correct).
	WALBroadcast WALKind = 3
)

// String implements fmt.Stringer.
func (k WALKind) String() string {
	switch k {
	case WALDeliver:
		return "DELIVER"
	case WALPin:
		return "PIN"
	case WALBroadcast:
		return "BROADCAST"
	default:
		return fmt.Sprintf("WALKind(%d)", uint8(k))
	}
}

// DurableEvent is one write-ahead record: a state transition the host
// must persist before acting on the Step that produced it. The algorithms
// emit Pin and Broadcast events in Step.Durable; hosts derive Deliver
// events from Step.Deliveries via DeliverEvent.
type DurableEvent struct {
	Kind WALKind
	// ID is the message the event is about.
	ID wire.MsgID
	// Fast is the delivery's fast flag (WALDeliver only).
	Fast bool
	// Ack is the pinned tag_ack (WALPin only).
	Ack ident.Tag
	// Draws is the process's tag-stream position after the event
	// (WALPin and WALBroadcast, which each draw one tag). Replay
	// fast-forwards the recovered stream past it so post-recovery draws
	// do not re-issue tags already on the wire.
	Draws uint64
}

// DeliverEvent builds the WAL record for one URB-delivery.
func DeliverEvent(d Delivery) DurableEvent {
	return DurableEvent{Kind: WALDeliver, ID: d.ID, Fast: d.Fast}
}

// Snapshot codec constants. The codec is versioned independently of the
// wire codec: state layouts and frame layouts evolve separately.
//
// Version 2 (DESIGN.md §10) replaced the label matrices of version 1
// with a compact form: each Quiescent message's acker views reference a
// per-snapshot table of distinct label sets, so a quiescent steady
// state — where every acker's view is the same set — persists that set
// once instead of once per (message, acker); heartbeat-host snapshots
// additionally carry the delta-beat stream position. Version 1
// snapshots are rejected with ErrSnapshotVersion.
const (
	snapVersion = 2
	walVersion  = 1

	snapKindMajority  = 1
	snapKindQuiescent = 2
	snapKindHeartbeat = 3
)

// Codec errors.
var (
	ErrSnapshotShort    = errors.New("urb: snapshot truncated")
	ErrSnapshotVersion  = errors.New("urb: unknown snapshot codec version")
	ErrSnapshotKind     = errors.New("urb: snapshot is for a different process kind")
	ErrSnapshotMismatch = errors.New("urb: snapshot does not match the process configuration")
	ErrSnapshotCorrupt  = errors.New("urb: snapshot fingerprint digest mismatch")
	ErrSnapshotTrailing = errors.New("urb: trailing bytes after snapshot")
	ErrWALRecord        = errors.New("urb: malformed WAL record")

	// errNonCanonical rejects encodings the canonical encoder never
	// produces (e.g. boolean bytes other than 0/1).
	errNonCanonical = errors.New("urb: non-canonical encoding")
)

// --- binary helpers -------------------------------------------------------

// noMax leaves a state count bounded only by the bytes left to read.
const noMax = math.MaxUint32

// room makes space for n more bytes, doubling the buffer when it is full:
// append grows a large slice by a quarter, which for a snapshot of a
// large state reallocates dozens of times and leaves about four times its
// size behind as garbage. Every write of the state encoders goes through
// it.
func room(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = slices.Grow(b, max(n, len(b)))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(room(b, 1), 1)
	}
	return append(room(b, 1), 0)
}

func appendMsgID(b []byte, id wire.MsgID) []byte {
	b = codec.AppendTag(room(b, codec.TagLen+4+len(id.Body)), id.Tag)
	b = binary.BigEndian.AppendUint32(b, uint32(len(id.Body)))
	return append(b, id.Body...)
}

func appendTagList(b []byte, ts []ident.Tag) []byte {
	return codec.AppendTags(room(b, 4+codec.TagLen*len(ts)), ts)
}

func appendIDs(b []byte, recs []*msgRec) []byte {
	b = binary.BigEndian.AppendUint32(room(b, 4), uint32(len(recs)))
	for _, rec := range recs {
		b = appendMsgID(b, rec.id)
	}
	return b
}

func appendU32(b []byte, v uint32) []byte    { return binary.BigEndian.AppendUint32(room(b, 4), v) }
func appendU64(b []byte, v uint64) []byte    { return binary.BigEndian.AppendUint64(room(b, 8), v) }
func appendTag(b []byte, t ident.Tag) []byte { return codec.AppendTag(room(b, codec.TagLen), t) }

func readBool(r *codec.Reader) bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		// Strict: the encoder only ever writes 0 or 1, and accepting
		// other values would make decode∘encode non-canonical.
		r.Fail(&errNonCanonical)
		return false
	}
}

func readMsgID(r *codec.Reader) wire.MsgID {
	t := r.Tag()
	return wire.MsgID{Tag: t, Body: string(r.Bytes(r.Count(1, noMax, nil)))}
}

func readIDs(r *codec.Reader) []wire.MsgID {
	n := r.Count(codec.TagLen+4, noMax, nil)
	out := make([]wire.MsgID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readMsgID(r))
	}
	return out
}

// sortedRecs returns the records keep selects — one of the paper's sets,
// read off the table — in the canonical order of their identities (tag,
// then body): what the codec writes wherever the old layout had the
// sorted keys of a map.
func (c *common) sortedRecs(keep func(*msgRec) bool) []*msgRec {
	var out []*msgRec
	for rec := range c.recs.all {
		if keep(rec) {
			out = append(out, rec)
		}
	}
	slices.SortFunc(out, func(a, b *msgRec) int {
		if c := a.id.Tag.Compare(b.id.Tag); c != 0 {
			return c
		}
		return strings.Compare(a.id.Body, b.id.Body)
	})
	return out
}

// recsWhere appends to dst the records of table keep selects, in table
// order: one sort of the whole table then serves every set.
func recsWhere(dst, table []*msgRec, keep func(*msgRec) bool) []*msgRec {
	for _, rec := range table {
		if keep(rec) {
			dst = append(dst, rec)
		}
	}
	return dst
}

// The paper's sets, as predicates over a record.
func (r *msgRec) inTable() bool     { return true }
func (r *msgRec) isSaw() bool       { return r.saw }
func (r *msgRec) isDelivered() bool { return r.delivered }
func (r *msgRec) isPinned() bool    { return r.pinned }
func (r *msgRec) hasLedger() bool   { return r.send != nil }

// snapDigest hashes a snapshot's payload bytes together with the state
// fingerprint the payload decodes to, producing the 64-bit digest
// embedded in the trailer (FNV-1a; the digest guards against corruption,
// not attackers). Covering the raw bytes catches flips in fields the
// behaviour-oriented fingerprint deliberately omits (e.g. the wire-sent
// counter); covering the fingerprint catches encoder/decoder divergence.
//
// The fingerprint is streamed into the hash as its emitter writes it:
// the digest equals FNV-1a over the payload followed by Fingerprint's
// text, but that text is never built.
func snapDigest(payload []byte, e fpEmitter) uint64 {
	s := fpSink{h: fnvOffset}
	s.h.write(payload)
	e.fingerprint(&s)
	return uint64(s.h)
}

// fnv64a is a running 64-bit FNV-1a hash. It is written out rather than
// taken from hash/fnv, whose digest has no WriteString: feeding it a
// string would copy it first.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

func (h *fnv64a) write(b []byte) {
	x := *h
	for _, c := range b {
		x = (x ^ fnv64a(c)) * fnvPrime
	}
	*h = x
}

func (h *fnv64a) writeString(s string) {
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ fnv64a(s[i])) * fnvPrime
	}
	*h = x
}

func (h *fnv64a) writeByte(c byte) { *h = (*h ^ fnv64a(c)) * fnvPrime }

// cfgFlags packs the Config knobs for the restore-time compatibility
// check: a snapshot must be restored into an identically configured
// process (the knobs change behaviour, and a silent flip across a restart
// would make the recovered process a different algorithm).
func cfgFlags(c Config) uint8 {
	var f uint8
	if c.EagerFirstSend {
		f |= 1 << 0
	}
	if c.CheckOnTick {
		f |= 1 << 1
	}
	if c.RetireBeforeSend {
		f |= 1 << 2
	}
	if c.DeltaAcks {
		f |= 1 << 3
	}
	if c.CompactDelivered {
		f |= 1 << 4
	}
	if c.DeltaBeats {
		f |= 1 << 5
	}
	return f
}

// cfgFromFlags is the inverse of cfgFlags (used by VerifySnapshot, which
// must construct a matching process from the snapshot alone).
func cfgFromFlags(f uint8) Config {
	return Config{
		EagerFirstSend:   f&(1<<0) != 0,
		CheckOnTick:      f&(1<<1) != 0,
		RetireBeforeSend: f&(1<<2) != 0,
		DeltaAcks:        f&(1<<3) != 0,
		CompactDelivered: f&(1<<4) != 0,
		DeltaBeats:       f&(1<<5) != 0,
	}
}

// --- common state sections ------------------------------------------------

// encodeCommon writes the state shared by both algorithms. It returns the
// whole table in canonical order, from which the caller reads its own
// sets.
func (c *common) encodeCommon(b []byte) ([]byte, []*msgRec) {
	b = append(room(b, 1), cfgFlags(c.cfg))
	b = appendU64(b, c.tags.Draws())
	b = appendU64(b, c.wireSent)
	b = appendIDs(b, c.msgs.appendLive(nil)) // insertion order: Task-1 iteration order is state
	table := c.sortedRecs((*msgRec).inTable)
	set := make([]*msgRec, 0, len(table))
	b = appendIDs(b, recsWhere(set, table, (*msgRec).isSaw))
	b = appendIDs(b, recsWhere(set, table, (*msgRec).isDelivered))
	mine := recsWhere(set, table, (*msgRec).isPinned)
	b = appendU32(b, uint32(len(mine)))
	for _, rec := range mine {
		b = appendTag(appendMsgID(b, rec.id), rec.ack)
	}
	return b, table
}

// decodeCommon rebuilds the shared state into a fresh table. The tag
// source is fast-forwarded to the recorded stream position.
func (c *common) decodeCommon(r *codec.Reader, wantCfg Config) error {
	flags := r.U8()
	if r.Err() == nil && flags != cfgFlags(wantCfg) {
		return fmt.Errorf("%w: snapshot config flags %#x, process has %#x",
			ErrSnapshotMismatch, flags, cfgFlags(wantCfg))
	}
	draws := r.U64()
	wireSent := r.U64()
	msgs := readIDs(r)
	saw := readIDs(r)
	del := readIDs(r)
	n := r.Count(codec.TagLen+4+codec.TagLen, noMax, nil)
	if err := r.Err(); err != nil {
		return err
	}
	// The lists are sets: a repeated identity lands on its one record (a
	// repeated pin keeps the last tag_ack, as a map assignment would).
	var fresh common
	fresh.recs.grow(len(saw))
	for _, id := range msgs {
		fresh.msgs.add(fresh.recordID(id))
	}
	for _, id := range saw {
		fresh.recordID(id).saw = true
	}
	for _, id := range del {
		fresh.recordID(id).delivered = true
	}
	pinned := 0
	for i := 0; i < n; i++ {
		rec := fresh.recordID(readMsgID(r))
		if !rec.pinned {
			pinned++
		}
		rec.ack, rec.pinned = r.Tag(), true
	}
	if err := r.Err(); err != nil {
		return err
	}
	// Plausibility bound before fast-forwarding the stream: every draw is
	// either a tag_ack pin (MY_ACK_i, which never shrinks) or a local
	// broadcast (whose record keeps its saw flag forever), plus at most one
	// detector label for a wrapping host. A corrupted draw counter beyond
	// that would otherwise spin SkipTo for billions of throwaway draws.
	if draws > uint64(pinned)+uint64(len(saw))+1 {
		return fmt.Errorf("%w: draw counter %d exceeds state plausibility bound", ErrSnapshotMismatch, draws)
	}
	if err := c.tags.SkipTo(draws); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
	}
	c.wireSent = wireSent
	c.recs, c.msgs = fresh.recs, fresh.msgs
	return nil
}

// applyCommonWAL realises the kind-independent part of WAL replay and
// returns the record it replayed into. guardDelivered is Algorithm 2's
// rule: a delivered message stays out of MSG_i (it may have been retired
// after the checkpoint, and re-reception respects the same guard);
// Algorithm 1 never removes, so it always re-inserts.
func (c *common) applyCommonWAL(ev DurableEvent, guardDelivered bool) (*msgRec, error) {
	switch ev.Kind {
	case WALDeliver, WALBroadcast:
	case WALPin:
		if ev.Ack.Zero() {
			return nil, fmt.Errorf("%w: pin with zero tag_ack", ErrWALRecord)
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrWALRecord, ev.Kind)
	}
	rec := c.recordID(ev.ID)
	rec.saw = true
	if ev.Kind == WALDeliver {
		rec.delivered = true
	}
	if ev.Kind == WALPin {
		rec.ack, rec.pinned = ev.Ack, true
	}
	if !guardDelivered || !rec.delivered {
		c.msgs.add(rec)
	}
	if ev.Draws > c.tags.Draws() {
		// Replay cannot rewind (records arrive in append order), so this
		// can only fast-forward past tags the predecessor already drew —
		// and each logged event drew exactly one, so a larger jump is a
		// corrupt record, not a gap to honour.
		if ev.Draws > c.tags.Draws()+1 {
			return nil, fmt.Errorf("%w: draw counter %d jumps past stream position %d",
				ErrWALRecord, ev.Draws, c.tags.Draws())
		}
		_ = c.tags.SkipTo(ev.Draws)
	}
	return rec, nil
}

// --- Majority -------------------------------------------------------------

// Snapshot implements Snapshotter.
func (p *Majority) Snapshot() []byte {
	b := []byte{snapVersion, snapKindMajority}
	b = appendU32(b, uint32(p.n))
	b = appendU32(b, uint32(p.threshold))
	b, _ = p.encodeCommon(b)
	b = appendU32(b, uint32(len(p.ackOrder)))
	for _, rec := range p.ackOrder {
		b = appendTagList(appendMsgID(b, rec.id), rec.acks.Slice())
	}
	return appendU64(b, snapDigest(b, p))
}

// Restore implements Snapshotter.
func (p *Majority) Restore(data []byte) error {
	r := codec.NewReader(data, &ErrSnapshotShort)
	if v := r.U8(); r.Err() == nil && v != snapVersion {
		return ErrSnapshotVersion
	}
	if k := r.U8(); r.Err() == nil && k != snapKindMajority {
		return ErrSnapshotKind
	}
	n := int(r.U32())
	threshold := int(r.U32())
	if r.Err() == nil && (n != p.n || threshold != p.threshold) {
		return fmt.Errorf("%w: snapshot n=%d/threshold=%d, process has n=%d/threshold=%d",
			ErrSnapshotMismatch, n, threshold, p.n, p.threshold)
	}
	if err := p.decodeCommon(&r, p.cfg); err != nil {
		return err
	}
	cnt := r.Count(codec.TagLen+4+4, noMax, nil)
	if err := r.Err(); err != nil {
		return err
	}
	p.ackOrder = make([]*msgRec, 0, cnt)
	for i := 0; i < cnt; i++ {
		id := readMsgID(&r)
		labels := r.Tags(noMax, nil)
		if err := r.Err(); err != nil {
			return err
		}
		rec := p.recordID(id)
		if rec.acks != nil {
			// Two ALL_ACK entries for one message would list its one
			// record twice in ackOrder.
			return fmt.Errorf("%w: duplicate message in snapshot", ErrSnapshotMismatch)
		}
		rec.acks = ident.NewSet(labels...)
		p.ackOrder = append(p.ackOrder, rec)
	}
	digest := r.U64()
	if err := r.Done(ErrSnapshotTrailing); err != nil {
		return err
	}
	if snapDigest(data[:len(data)-8], p) != digest {
		return ErrSnapshotCorrupt
	}
	return nil
}

// ApplyWAL implements Durable.
func (p *Majority) ApplyWAL(ev DurableEvent) error {
	// MSG_i never shrinks in Algorithm 1, so every record re-inserts: the
	// recovered process resumes retransmitting everything it knew.
	_, err := p.applyCommonWAL(ev, false)
	return err
}

// Rejoin implements Durable. Algorithm 1's wire messages carry no
// stream sequencing, so a recovered instance needs no rebasing.
func (p *Majority) Rejoin() {}

// --- Quiescent ------------------------------------------------------------

// Snapshot implements Snapshotter. The version-2 form is compact
// (DESIGN.md §10): acker views reference a table of distinct label sets
// instead of each embedding its own copy, so persisting a quiescent
// steady state costs kilobytes where the version-1 label matrices cost
// one set per (message, acker). The table is built at encode time from
// the sets' values, so compacted and uncompacted processes with equal
// state produce snapshots of equal shape.
func (p *Quiescent) Snapshot() []byte {
	b, table := p.encodeCommon([]byte{snapVersion, snapKindQuiescent})
	b = appendU64(b, uint64(p.retired))
	b = appendU64(b, p.ticks)
	b = appendU64(b, p.epochFloor)
	// First pass: assign set-table indices in deterministic first-use
	// order over the (ackOrder, acker table) walk.
	tableIdx := make(map[string]uint32)
	var tableSets []*ident.Set
	refOf := func(s *ident.Set) uint32 {
		var kb [16 * setKeyStack]byte
		k := appendSetKey(kb[:0], s)
		if i, ok := tableIdx[string(k)]; ok {
			return i
		}
		i := uint32(len(tableSets))
		tableIdx[string(k)] = i
		tableSets = append(tableSets, s)
		return i
	}
	var refs []uint32 // the views' indices, in walk order
	for _, rec := range p.ackOrder {
		for j := range rec.st.ackers.Len() {
			refs = append(refs, refOf(rec.st.ackers.At(j).labels))
		}
	}
	b = appendU32(b, uint32(len(tableSets)))
	for _, s := range tableSets {
		b = appendTagList(b, s.Slice())
	}
	b = appendU32(b, uint32(len(p.ackOrder)))
	for _, rec := range p.ackOrder {
		st := rec.st
		b = appendU32(appendMsgID(b, rec.id), uint32(st.ackers.Len()))
		for j, acker := range st.ackers.Keys() {
			v := st.ackers.At(j)
			b = appendTag(b, acker)
			b = appendBool(appendU64(b, v.epoch), v.synced)
			b = appendU32(b, refs[0])
			refs = refs[1:]
		}
		reqs := make([]ident.Tag, 0, len(st.reqTick))
		for acker := range st.reqTick {
			reqs = append(reqs, acker)
		}
		slices.SortFunc(reqs, ident.Tag.Compare)
		b = appendU32(b, uint32(len(reqs)))
		for _, acker := range reqs {
			b = appendTag(b, acker)
			b = appendU64(b, st.reqTick[acker])
		}
	}
	ledger := recsWhere(table[:0], table, (*msgRec).hasLedger) // filtered in place
	b = appendU32(b, uint32(len(ledger)))
	for _, rec := range ledger {
		st := rec.send
		b = appendMsgID(b, rec.id)
		b = appendU64(appendU64(appendU64(b, st.epoch), st.reAckTick), st.snapTick)
		b = appendTagList(b, st.sent.Slice())
	}
	return appendU64(b, snapDigest(b, p))
}

// Restore implements Snapshotter.
func (p *Quiescent) Restore(data []byte) error {
	if err := p.restoreState(data); err != nil {
		return err
	}
	p.settleRestored()
	return nil
}

// restoreState decodes a snapshot and checks its digest against the state
// exactly as written, before settleRestored changes it.
func (p *Quiescent) restoreState(data []byte) error {
	r := codec.NewReader(data, &ErrSnapshotShort)
	if v := r.U8(); r.Err() == nil && v != snapVersion {
		return ErrSnapshotVersion
	}
	if k := r.U8(); r.Err() == nil && k != snapKindQuiescent {
		return ErrSnapshotKind
	}
	if err := p.decodeCommon(&r, p.cfg); err != nil {
		return err
	}
	retired := r.U64()
	ticks := r.U64()
	epochFloor := r.U64()
	// Set table: the distinct label sets the acker views reference.
	tableCnt := r.Count(4, noMax, nil)
	if err := r.Err(); err != nil {
		return err
	}
	table := make([][]ident.Tag, 0, tableCnt)
	for i := 0; i < tableCnt; i++ {
		table = append(table, r.Tags(noMax, nil))
		if err := r.Err(); err != nil {
			return err
		}
	}
	cnt := r.Count(codec.TagLen+4+8, noMax, nil)
	if err := r.Err(); err != nil {
		return err
	}
	sets := setIntern{}
	ackOrder := make([]*msgRec, 0, cnt)
	dirtyQ := new(dirtyQueue)
	for i := 0; i < cnt; i++ {
		rec := p.recordID(readMsgID(&r))
		if rec.st != nil {
			// Two ackOrder slots for one message would orphan a queued
			// state (the index's position ↔ state mapping is one-to-one).
			return fmt.Errorf("%w: duplicate message in snapshot", ErrSnapshotMismatch)
		}
		ackers := r.Count(codec.TagLen+8+1+4, noMax, nil)
		st := newAckState(dirtyQ, i, ackers)
		st.compacted = p.cfg.CompactDelivered && rec.delivered
		for j := 0; j < ackers; j++ {
			acker := r.Tag()
			epoch := r.U64()
			synced := readBool(&r)
			ref := r.U32()
			if err := r.Err(); err != nil {
				return err
			}
			if int(ref) >= len(table) {
				return fmt.Errorf("%w: acker set ref %d beyond table of %d", ErrSnapshotMismatch, ref, len(table))
			}
			v, added := st.ackers.Insert(acker, ackerView{labels: ident.NewSet(table[ref]...), epoch: epoch, synced: synced})
			if !added {
				return fmt.Errorf("%w: duplicate acker in snapshot", ErrSnapshotMismatch)
			}
			for _, l := range v.labels.Slice() {
				st.bump(l)
			}
			st.internView(&sets, v)
		}
		reqs := r.Count(codec.TagLen+8, noMax, nil)
		for j := 0; j < reqs; j++ {
			acker := r.Tag()
			tick := r.U64()
			if err := r.Err(); err != nil {
				return err
			}
			if st.reqTick == nil {
				st.reqTick = make(map[ident.Tag]uint64, reqs)
			}
			st.reqTick[acker] = tick
		}
		if err := r.Err(); err != nil {
			return err
		}
		rec.st = st
		ackOrder = append(ackOrder, rec)
	}
	sendCnt := r.Count(codec.TagLen+4+8*3+4, noMax, nil)
	if err := r.Err(); err != nil {
		return err
	}
	// Ledger entries written under one AΘ view carry the same label list:
	// they share one set here as they do live (sent sets are immutable).
	var sent *ident.Set
	for i := 0; i < sendCnt; i++ {
		id := readMsgID(&r)
		st := &ackSendState{epoch: r.U64(), reAckTick: r.U64(), snapTick: r.U64()}
		if tags := r.Tags(noMax, nil); sent == nil || !slices.Equal(tags, sent.Slice()) {
			sent = ident.NewSet(tags...)
		}
		st.sent = sent
		if err := r.Err(); err != nil {
			return err
		}
		p.recordID(id).send = st // a repeated entry keeps the last, as a map would
	}
	digest := r.U64()
	if err := r.Done(ErrSnapshotTrailing); err != nil {
		return err
	}
	p.retired = int(retired)
	p.ticks = ticks
	p.epochFloor = epochFloor
	p.sets = sets
	p.ackOrder = ackOrder
	p.dirtyQ = dirtyQ
	p.viewsKnown = false
	if snapDigest(data[:len(data)-8], p) != digest {
		return ErrSnapshotCorrupt
	}
	return nil
}

// settleRestored finishes a restore. It frees the claim state a snapshot
// still lists for settled records: an older build kept it for every
// retired message, and a snapshot taken between a fast delivery and the
// next Tick holds it too (freeClaims). Everything left is then dirty: the
// first Tick must run a full purge + retirement pass against whatever
// views the new incarnation's detector reports. Decoding already queued
// most states (every claim counted marks its state), so the queue is
// rebuilt from the survivors.
func (p *Quiescent) settleRestored() {
	for _, st := range *p.dirtyQ {
		st.dirty = false
	}
	*p.dirtyQ = (*p.dirtyQ)[:0]
	p.freeClaims()
	for _, rec := range p.ackOrder {
		rec.st.markDirty()
	}
}

// Rejoin implements Durable: start a new delta-ACK incarnation. The
// ledger is dropped — its epochs may trail what the previous incarnation
// sent after the checkpoint — and the next ACK per message opens a fresh
// stream with a snapshot above the new floor, which receivers accept
// (or gap-detect and resync) regardless of where the lost window ended.
func (p *Quiescent) Rejoin() {
	inc := p.epochFloor >> 32
	for rec := range p.recs.all {
		if rec.send == nil {
			continue
		}
		if e := rec.send.epoch >> 32; e > inc {
			inc = e
		}
		rec.send = nil
	}
	p.epochFloor = (inc + 1) << 32
}

// ApplyWAL implements Durable.
func (p *Quiescent) ApplyWAL(ev DurableEvent) error {
	// A delivered message re-enters MSG_i on replay (the ACK evidence
	// since the checkpoint is lost, so the recovered process retransmits
	// until the retirement guard passes again — safe, and required for
	// uniform agreement); a pin or broadcast for an already-delivered
	// message respects the same guard live reception applies.
	rec, err := p.applyCommonWAL(ev, ev.Kind != WALDeliver)
	if err == nil && ev.Kind == WALDeliver && rec.st != nil {
		// The replayed delivery makes the message retirement-eligible
		// (and compactable) exactly as a live delivery would.
		rec.st.markDirty()
		p.compactState(rec.st)
	}
	p.viewsKnown = false
	return err
}

// --- HeartbeatHost --------------------------------------------------------

// Snapshot implements Snapshotter: the host's heartbeat state wraps the
// inner algorithm's snapshot. Heartbeat timestamps are in the host
// clock's units; restarting with a clock that resumes from zero makes
// every heard label look stale until the next beat — exactly the
// conservative reading (a recovering process re-learns who is alive).
// The delta-beat receiver tables are deliberately absent: they are soft
// wire-level caches the BEATREQ path rebuilds (one exchange per
// stream), so a restart loses nothing it cannot get back.
func (h *HeartbeatHost) Snapshot() []byte {
	b := appendTag([]byte{snapVersion, snapKindHeartbeat}, h.hb.Label())
	b = appendU32(b, uint32(h.beatEvery))
	b = appendU64(b, uint64(h.hb.Timeout()))
	b = appendU64(b, uint64(h.tickCount))
	b = appendU64(b, h.beatsSent)
	b = appendU64(b, h.beatReqsSent)
	b = appendBool(appendU32(b, h.beatEpoch), h.beatSnapSent)
	heard := h.hb.Heard()
	b = appendU32(b, uint32(len(heard)))
	for _, e := range heard {
		b = appendU64(appendTag(b, e.Label), uint64(e.At))
	}
	inner := h.inner.Snapshot()
	b = append(room(appendU32(b, uint32(len(inner))), len(inner)), inner...)
	return appendU64(b, snapDigest(b, h))
}

// Restore implements Snapshotter. The host adopts the snapshot's
// failure-detector label: the label is the process's persistent anonymous
// identity towards the detector layer, and a restart that changed it
// would make peers treat the recovered process as a fresh arrival (and
// eventually declare the old label crashed).
func (h *HeartbeatHost) Restore(data []byte) error {
	r := codec.NewReader(data, &ErrSnapshotShort)
	if v := r.U8(); r.Err() == nil && v != snapVersion {
		return ErrSnapshotVersion
	}
	if k := r.U8(); r.Err() == nil && k != snapKindHeartbeat {
		return ErrSnapshotKind
	}
	label := r.Tag()
	beatEvery := int(r.U32())
	timeout := int64(r.U64())
	tickCount := r.U64()
	beatsSent := r.U64()
	beatReqsSent := r.U64()
	beatEpoch := r.U32()
	beatSnapSent := readBool(&r)
	n := r.Count(codec.TagLen+8, noMax, nil)
	if err := r.Err(); err != nil {
		return err
	}
	heard := make([]HeardLabel, 0, n)
	for i := 0; i < n; i++ {
		e := HeardLabel{Label: r.Tag()}
		e.At = int64(r.U64())
		heard = append(heard, e)
	}
	inner := r.Bytes(r.Count(1, noMax, nil))
	digest := r.U64()
	if err := r.Done(ErrSnapshotTrailing); err != nil {
		return err
	}
	if label.Zero() {
		return fmt.Errorf("%w: zero heartbeat label", ErrSnapshotMismatch)
	}
	if beatEvery != h.beatEvery || timeout != h.hb.Timeout() {
		return fmt.Errorf("%w: snapshot beatEvery=%d/timeout=%d, host has %d/%d",
			ErrSnapshotMismatch, beatEvery, timeout, h.beatEvery, h.hb.Timeout())
	}
	if beatEpoch == 0 {
		return fmt.Errorf("%w: zero beat epoch", ErrSnapshotMismatch)
	}
	// The host's digest covers the inner state as written, so the inner
	// process settles only after it has checked.
	if err := h.inner.restoreState(inner); err != nil {
		return err
	}
	h.hb.Relabel(label)
	h.hb.RestoreHeard(heard)
	h.tickCount = int(tickCount)
	h.beatsSent = beatsSent
	h.beatReqsSent = beatReqsSent
	h.beatEpoch = beatEpoch
	h.beatSnapSent = beatSnapSent
	h.streams = nil // soft receiver state: rebuilt via BEATREQ
	h.beatReqTick = nil
	h.beatSnapTick = 0
	if snapDigest(data[:len(data)-8], h) != digest {
		return ErrSnapshotCorrupt
	}
	h.inner.settleRestored()
	return nil
}

// ApplyWAL implements Durable by replaying into the wrapped algorithm
// (the host's own state — beat counters, heard map — is checkpoint-only:
// losing beats between checkpoints costs at most one re-learned view).
func (h *HeartbeatHost) ApplyWAL(rec DurableEvent) error { return h.inner.ApplyWAL(rec) }

// Rejoin implements Durable (the detector label is deliberately NOT
// rebased: it is the process's persistent identity, and beats refresh
// peers' trust in it the moment the recovered host resumes ticking).
// The beat stream epoch IS rebased — its low 16 bits count announcement
// changes within an incarnation, and the bump puts the recovered stream
// above anything the lost post-checkpoint window can have sent (the
// delta-ACK incarnation rule of DESIGN.md §9 applied to beats) — and the
// next beat re-snapshots so receivers resynchronise without a BEATREQ.
func (h *HeartbeatHost) Rejoin() {
	h.rebaseBeatStream()
	h.inner.Rejoin()
}

// rebaseBeatStream starts a new beat-stream incarnation: the epoch bump
// shared by Rejoin (crash recovery) and Adopt (join).
func (h *HeartbeatHost) rebaseBeatStream() {
	if inc := h.beatEpoch >> 16; inc < 0xffff {
		h.beatEpoch = (inc+1)<<16 | 1
	} else {
		// Incarnation space exhausted (65,536 rejoins): saturate rather
		// than wrap — a wrapped epoch would regress below what receivers
		// hold and their stale-beat path would resync forever. At the
		// ceiling the stream stops rebasing; receivers synced at max
		// accept equal-epoch refreshes, and any announcement change lost
		// in the final crash window heals through the ordinary
		// BEATREQ/snapshot path.
		h.beatEpoch = 1<<32 - 1
	}
	h.beatSnapSent = false
}

// HeardLabel aliases the detector-layer entry the host snapshot carries.
type HeardLabel = fd.HeardLabel

// --- WAL record codec -----------------------------------------------------

// EncodeWAL returns the canonical binary form of one write-ahead record.
func (r DurableEvent) EncodeWAL() []byte {
	b := make([]byte, 0, 2+codec.TagLen+4+len(r.ID.Body)+codec.TagLen+8)
	b = appendMsgID(append(b, walVersion, uint8(r.Kind)), r.ID)
	switch r.Kind {
	case WALDeliver:
		b = appendBool(b, r.Fast)
	case WALPin:
		b = appendU64(appendTag(b, r.Ack), r.Draws)
	case WALBroadcast:
		b = appendU64(b, r.Draws)
	}
	return b
}

// DecodeWALRecord parses one write-ahead record, rejecting unknown
// versions and kinds, structural corruption and trailing bytes.
func DecodeWALRecord(b []byte) (DurableEvent, error) {
	r := codec.NewReader(b, &ErrSnapshotShort)
	if v := r.U8(); r.Err() == nil && v != walVersion {
		return DurableEvent{}, fmt.Errorf("%w: version %d", ErrWALRecord, v)
	}
	rec := DurableEvent{Kind: WALKind(r.U8())}
	rec.ID = readMsgID(&r)
	switch rec.Kind {
	case WALDeliver:
		rec.Fast = readBool(&r)
	case WALPin:
		rec.Ack = r.Tag()
		rec.Draws = r.U64()
	case WALBroadcast:
		rec.Draws = r.U64()
	default:
		if r.Err() == nil {
			return DurableEvent{}, fmt.Errorf("%w: unknown kind %d", ErrWALRecord, rec.Kind)
		}
	}
	if err := r.Done(ErrSnapshotTrailing); err != nil {
		return DurableEvent{}, fmt.Errorf("%w: %v", ErrWALRecord, err)
	}
	if rec.ID.Tag.Zero() {
		return DurableEvent{}, fmt.Errorf("%w: zero message tag", ErrWALRecord)
	}
	if rec.Kind == WALPin && rec.Ack.Zero() {
		return DurableEvent{}, fmt.Errorf("%w: zero tag_ack on pin", ErrWALRecord)
	}
	return rec, nil
}

// --- snapshot inspection --------------------------------------------------

// SnapshotInfo summarises a decoded snapshot (cmd/urbcheck -snapshot).
type SnapshotInfo struct {
	// Kind names the process type the snapshot belongs to.
	Kind string
	// Version is the snapshot codec version.
	Version int
	// N and Threshold are the system parameters (Majority snapshots only).
	N, Threshold int
	// BeatEvery and Timeout are the host parameters (heartbeat-host
	// snapshots only).
	BeatEvery int
	Timeout   int64
	// Config is the paper-knob configuration the snapshot was taken under.
	Config Config
	// Stats are the restored process's state sizes.
	Stats Stats
	// Draws is the tag-stream position.
	Draws uint64
	// Incarnation is the delta-ACK incarnation the snapshot's streams
	// are based at (the epoch floor's high half; 0 for a process that
	// never recovered, and always 0 for Majority snapshots, whose ACKs
	// carry no sequencing). The join protocol's staleness gate compares
	// it against the joiner's own floor: a donor snapshot from an older
	// incarnation than state the joiner has already held is a replay of
	// superseded history, rejected before Restore (DESIGN.md §13).
	Incarnation uint64
	// Digest is the verified fingerprint digest.
	Digest uint64
}

// VerifySnapshot decodes a snapshot into a freshly constructed process of
// the right kind, recomputes the state fingerprint and checks it against
// the embedded digest. It is the full corruption check: structural
// validity plus semantic round-trip.
func VerifySnapshot(data []byte) (SnapshotInfo, error) {
	r := codec.NewReader(data, &ErrSnapshotShort)
	version := int(r.U8())
	kind := r.U8()
	if r.Err() != nil {
		return SnapshotInfo{}, ErrSnapshotShort
	}
	if version != snapVersion {
		return SnapshotInfo{Version: version}, ErrSnapshotVersion
	}
	info := SnapshotInfo{Version: version}
	var proc Durable
	switch kind {
	case snapKindMajority:
		info.Kind = "majority"
		info.N = int(r.U32())
		info.Threshold = int(r.U32())
		info.Config = cfgFromFlags(r.U8())
		if err := r.Err(); err != nil {
			return info, err
		}
		if info.N < 1 || info.Threshold < 1 || info.Threshold > info.N {
			return info, fmt.Errorf("%w: invalid n=%d/threshold=%d", ErrSnapshotMismatch, info.N, info.Threshold)
		}
		proc = NewMajorityThreshold(info.N, info.Threshold, verifyTagSource(), info.Config)
	case snapKindQuiescent:
		info.Kind = "quiescent"
		info.Config = cfgFromFlags(r.U8())
		if err := r.Err(); err != nil {
			return info, err
		}
		proc = NewQuiescent(verifyDetector{}, verifyTagSource(), info.Config)
	case snapKindHeartbeat:
		info.Kind = "heartbeat-host"
		// Peek the host parameters and the inner quiescent config so the
		// constructed host passes the restore-time compatibility checks.
		// Layout: label(16) beatEvery(4) timeout(8) tick(8) beats(8)
		// beatReqs(8) beatEpoch(4) beatSnapSent(1)
		// heardCount(4) + heard entries(24 each) | innerLen(4) | inner...
		r.Skip(codec.TagLen)
		beatEvery := int(r.U32())
		timeout := int64(r.U64())
		r.Skip(8 + 8 + 8 + 4 + 1)
		r.Skip(r.Count(codec.TagLen+8, noMax, nil) * (codec.TagLen + 8))
		inner := r.Bytes(r.Count(1, noMax, nil))
		if err := r.Err(); err != nil {
			return info, err
		}
		if len(inner) < 3 {
			return info, ErrSnapshotShort
		}
		if inner[0] != snapVersion {
			return info, ErrSnapshotVersion
		}
		if inner[1] != snapKindQuiescent {
			return info, ErrSnapshotKind
		}
		if timeout <= 0 || beatEvery < 1 {
			return info, fmt.Errorf("%w: invalid beatEvery=%d/timeout=%d", ErrSnapshotMismatch, beatEvery, timeout)
		}
		info.BeatEvery, info.Timeout = beatEvery, timeout
		info.Config = cfgFromFlags(inner[2])
		proc = NewHeartbeatHost(verifyTagSource(), timeout, beatEvery, func() int64 { return 0 }, info.Config)
	default:
		return info, ErrSnapshotKind
	}
	if err := proc.Restore(data); err != nil {
		return info, err
	}
	info.Stats = proc.Stats()
	// Restore has just checked the trailer against the state it rebuilt.
	info.Digest = binary.BigEndian.Uint64(data[len(data)-8:])
	switch p := proc.(type) {
	case *Majority:
		info.Draws = p.tags.Draws()
	case *Quiescent:
		info.Draws = p.tags.Draws()
		info.Incarnation = p.epochFloor >> 32
	case *HeartbeatHost:
		info.Draws = p.inner.tags.Draws()
		info.Incarnation = p.inner.epochFloor >> 32
	}
	return info, nil
}

// verifyTagSource returns a throwaway stream for VerifySnapshot: the
// restored process only needs the stream position, not the original
// values (it will never run).
func verifyTagSource() *ident.Source {
	return ident.NewSource(xrand.New(1))
}

// verifyDetector is the inert Detector VerifySnapshot wires a restored
// Quiescent to; fingerprints never consult the detector.
type verifyDetector struct{}

func (verifyDetector) ATheta() fd.View { return nil }
func (verifyDetector) APStar() fd.View { return nil }
