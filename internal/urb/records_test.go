package urb

// Tests for the message table (DESIGN.md §10, "Message records"): its
// structural invariant, the allocation budget of duplicate receptions,
// and the Restore gates that protect the one-record-per-message rule.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// checkRecords verifies the table's structural invariant: a record is
// indexed under its own tag, once, or — when an earlier record with
// another body holds that tag — in the clash map under its own identity,
// and find resolves every identity to its one record; every entry of an
// order slice points at the table's record for its identity; a record
// has a MSG_i slot iff it is listed exactly once in msgSet.order, at
// that slot; it has ACK state (hasAcks) iff it is listed exactly once in
// ackOrder.
func (c *common) checkRecords(ackOrder []*msgRec, hasAcks func(*msgRec) bool) error {
	indexed := make([]bool, len(c.recs.recs))
	for i := range c.recs.byTag.All {
		switch {
		case i >= len(indexed):
			return fmt.Errorf("index holds position %d of %d records", i, len(indexed))
		case indexed[i]:
			return fmt.Errorf("index holds record %v twice", c.recs.recs[i].id)
		case c.recs.byTag.Find(c.recs.recs[i].id.Tag, c.recs.tagAt) != i:
			return fmt.Errorf("record %v is indexed where its tag does not lead", c.recs.recs[i].id)
		}
		indexed[i] = true
	}
	for i, rec := range c.recs.recs {
		if indexed[i] {
			continue
		}
		if c.recs.clash[rec.id] != rec {
			return fmt.Errorf("record %v is neither indexed nor in the clash map", rec.id)
		}
		if j := c.recs.byTag.Find(rec.id.Tag, c.recs.tagAt); j < 0 || j > i || c.recs.recs[j].id.Body == rec.id.Body {
			return fmt.Errorf("clash record %v, but its tag does not lead to an earlier body", rec.id)
		}
	}
	for id, rec := range c.recs.clash {
		if rec.id != id {
			return fmt.Errorf("clash record %v filed under %v", rec.id, id)
		}
	}
	if n := c.recs.byTag.Len() + len(c.recs.clash); n != len(c.recs.recs) {
		return fmt.Errorf("%d records, but %d indexed and %d clashing", len(c.recs.recs), c.recs.byTag.Len(), len(c.recs.clash))
	}
	inMsgs := make(map[*msgRec]int, len(c.msgs.order))
	dead := 0
	for i, rec := range c.msgs.order {
		switch {
		case rec == nil:
			dead++
			continue
		case c.recs.find(rec.id) != rec:
			return fmt.Errorf("msgs.order[%d] (%v) is not the table's record", i, rec.id)
		case int(rec.slot) != i:
			return fmt.Errorf("msgs.order[%d] (%v) records slot %d", i, rec.id, rec.slot)
		}
		inMsgs[rec]++
	}
	if dead != c.msgs.dead {
		return fmt.Errorf("msgs counts %d tombstones, order holds %d", c.msgs.dead, dead)
	}
	inAcks := make(map[*msgRec]int, len(ackOrder))
	for i, rec := range ackOrder {
		if rec == nil || c.recs.find(rec.id) != rec {
			return fmt.Errorf("ackOrder[%d] is not a table record", i)
		}
		inAcks[rec]++
	}
	count := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for rec := range c.recs.all {
		id := rec.id
		if c.recs.find(id) != rec {
			return fmt.Errorf("%v does not resolve to its record", id)
		}
		if got, want := inMsgs[rec], count(rec.slot >= 0); got != want {
			return fmt.Errorf("%v: slot %d but listed %d times in msgs.order", id, rec.slot, got)
		}
		if got, want := inAcks[rec], count(hasAcks(rec)); got != want {
			return fmt.Errorf("%v: ACK state %v but listed %d times in ackOrder", id, want == 1, got)
		}
	}
	return nil
}

// claimMap flattens the claim counters for comparison.
func (a *ackState) claimMap() map[ident.Tag]int {
	m := make(map[ident.Tag]int, a.claims.Len())
	for i, l := range a.claims.Keys() {
		m[l] = *a.claims.At(i)
	}
	return m
}

// checkTables verifies one message's label tables: no tag_ack is listed
// twice, every view has a label set (the interned one, if it is shared),
// and the claim counters are exactly the recount from the views — one
// entry per claimed label, none for an unclaimed one.
func (a *ackState) checkTables() error {
	recount := make(map[ident.Tag]int)
	seen := make(map[ident.Tag]bool, a.ackers.Len())
	for i, acker := range a.ackers.Keys() {
		if seen[acker] {
			return fmt.Errorf("acker %v listed twice", acker)
		}
		seen[acker] = true
		v := a.ackers.At(i)
		if v.labels == nil || (v.entry != nil && v.entry.labels != v.labels) {
			return fmt.Errorf("acker %v: label set %p, interned entry %+v", acker, v.labels, v.entry)
		}
		for _, l := range v.labels.Slice() {
			recount[l]++
		}
	}
	if a.claims.Len() != len(recount) {
		return fmt.Errorf("claim table lists %d labels (%v), the views claim %d", a.claims.Len(), a.claims.Keys(), len(recount))
	}
	for l, want := range recount {
		if got := a.claims.Value(l); got != want {
			return fmt.Errorf("claims[%v] = %d, the views claim it %d times", l, got, want)
		}
	}
	return nil
}

// checkProcRecords applies checkRecords to any of the three stacks, and
// checkTables to every ACK state of Algorithm 2.
func checkProcRecords(t testing.TB, p Process) {
	t.Helper()
	var err error
	switch p := p.(type) {
	case *Majority:
		err = p.checkRecords(p.ackOrder, func(r *msgRec) bool { return r.acks != nil })
	case *Quiescent:
		err = p.checkRecords(p.ackOrder, func(r *msgRec) bool { return r.st != nil })
		for _, rec := range p.ackOrder {
			if err != nil {
				break
			}
			if err = rec.st.checkTables(); err != nil {
				err = fmt.Errorf("%v: %w", rec.id, err)
			}
		}
	case *HeartbeatHost:
		checkProcRecords(t, p.inner)
	default:
		t.Fatalf("checkProcRecords: unknown process type %T", p)
	}
	if err != nil {
		t.Fatalf("records: %v", err)
	}
}

// clashProc is the part of a process TestTagClash drives.
type clashProc interface {
	Durable
	obs.Explainer
	HasDelivered(wire.MsgID) bool
	KnowsMsg(wire.MsgID) bool
	Fingerprint() string
}

// TestTagClash: the table is keyed by tag, so two bodies under one tag —
// a corrupted copy or a real collision — share a slot of the tag map.
// They must still be two messages: two records (one in the clash map),
// each pinned, ACKed, delivered and explained on its own evidence, told
// apart by HasDelivered and KnowsMsg, and carried through a
// Snapshot/Restore round trip with the fingerprint and the snapshot
// bytes unchanged.
func TestTagClash(t *testing.T) {
	a := wire.MsgID{Tag: ident.Tag{Hi: 0xc1a5, Lo: 1}, Body: "alpha"}
	b := wire.MsgID{Tag: a.Tag, Body: "bravo"}
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	only := []ident.Tag{lbl(1)}
	for _, tc := range []struct {
		name string
		make func() clashProc
		ack  func(id wire.MsgID, acker ident.Tag) wire.Message
	}{
		{"majority",
			func() clashProc { return NewMajority(3, ident.NewSource(xrand.New(3)), Config{}) },
			func(id wire.MsgID, acker ident.Tag) wire.Message { return wire.NewAck(id, acker) }},
		{"quiescent",
			func() clashProc {
				return NewQuiescent(fd.Static{Theta: view}, ident.NewSource(xrand.New(3)), Config{DeltaAcks: true})
			},
			func(id wire.MsgID, acker ident.Tag) wire.Message { return wire.NewAckSnapshot(id, acker, 1, only) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.make()
			c := commonOf(p)
			names := func(s Step, id wire.MsgID) {
				t.Helper()
				if len(s.Broadcasts) != 1 || s.Broadcasts[0].ID() != id {
					t.Fatalf("reply %v, want one ACK naming %v", s.Broadcasts, id)
				}
			}
			names(p.Receive(wire.NewMsg(a)), a)
			names(p.Receive(wire.NewMsg(b)), b)
			if c.recs.len() != 2 || len(c.recs.clash) != 1 {
				t.Fatalf("%d records (%d clashing), want 2 (1)", c.recs.len(), len(c.recs.clash))
			}
			pinA, _ := pinOf(c, a)
			pinB, _ := pinOf(c, b)
			if pinA == pinB || c.recs.find(a) == c.recs.find(b) {
				t.Fatal("the two bodies share a record or a tag_ack")
			}

			p.Receive(tc.ack(a, lbl(100)))
			if s := p.Receive(tc.ack(a, lbl(101))); len(s.Deliveries) != 1 || s.Deliveries[0].ID != a {
				t.Fatalf("second ACK for %v delivered %v", a, s.Deliveries)
			}
			if !p.HasDelivered(a) || p.HasDelivered(b) {
				t.Fatalf("HasDelivered: %v, %v; want true, false", p.HasDelivered(a), p.HasDelivered(b))
			}
			if ea, eb := p.Explain(a), p.Explain(b); ea.Ackers != 2 || !ea.Delivered || eb.Ackers != 0 || eb.Delivered || !eb.Known {
				t.Fatalf("Explain: %v got %d ackers (delivered %v), %v got %d (delivered %v)",
					a, ea.Ackers, ea.Delivered, b, eb.Ackers, eb.Delivered)
			}
			// ACKREQ resolves its record by lookup, not record: the answer
			// (one per message per tick, hence the Tick) names the
			// requested body.
			if q, ok := p.(*Quiescent); ok {
				q.Tick()
				names(q.Receive(wire.NewAckResync(b, pinB)), b)
			}
			p.Receive(tc.ack(b, lbl(102)))
			if s := p.Receive(tc.ack(b, lbl(103))); len(s.Deliveries) != 1 || s.Deliveries[0].ID != b {
				t.Fatalf("second ACK for %v delivered %v", b, s.Deliveries)
			}
			if eb := p.Explain(b); eb.Ackers != 2 || !eb.Delivered {
				t.Fatalf("Explain(%v): %d ackers, delivered %v", b, eb.Ackers, eb.Delivered)
			}
			other := wire.MsgID{Tag: a.Tag, Body: "charlie"}
			if !p.KnowsMsg(a) || !p.KnowsMsg(b) || p.KnowsMsg(other) || p.HasDelivered(other) {
				t.Fatal("KnowsMsg/HasDelivered do not tell the bodies apart")
			}
			checkProcRecords(t, p)

			snap, fp := p.Snapshot(), p.Fingerprint()
			fresh := tc.make()
			if err := fresh.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if got := fresh.Fingerprint(); got != fp {
				t.Fatalf("fingerprint after Restore:\n%s\nwant\n%s", got, fp)
			}
			if !bytes.Equal(fresh.Snapshot(), snap) {
				t.Fatal("snapshot bytes changed across Restore")
			}
			if !fresh.HasDelivered(a) || !fresh.HasDelivered(b) || commonOf(fresh).recs.len() != 2 {
				t.Fatal("Restore lost one of the two bodies")
			}
			checkProcRecords(t, fresh)
		})
	}
}

// commonOf returns the shared state of a Majority or Quiescent.
func commonOf(p Process) *common {
	switch p := p.(type) {
	case *Majority:
		return &p.common
	case *Quiescent:
		return &p.common
	}
	panic(fmt.Sprintf("commonOf: %T", p))
}

// pinOf reads id's MY_ACK_i entry.
func pinOf(c *common, id wire.MsgID) (ident.Tag, bool) {
	if rec := c.recs.find(id); rec != nil && rec.pinned {
		return rec.ack, true
	}
	return ident.Tag{}, false
}

// deliveredMajority builds an Algorithm 1 process (n=3) holding k
// messages with 16-byte bodies, each received, acknowledged by two
// ackers and delivered. It returns one MSG and one duplicate ACK per
// message.
func deliveredMajority(t testing.TB, k int) (*Majority, []wire.Message, []wire.Message) {
	t.Helper()
	p := NewMajority(3, ident.NewSource(xrand.New(5)), Config{})
	msgs := make([]wire.Message, k)
	acks := make([]wire.Message, k)
	for i := range msgs {
		id := wire.MsgID{Tag: ident.Tag{Hi: uint64(i) + 1, Lo: 7}, Body: fmt.Sprintf("payload-%08d", i)}
		msgs[i] = wire.NewMsg(id)
		acks[i] = wire.NewAck(id, lbl(100))
		p.Receive(msgs[i])
		p.Receive(acks[i])
		p.Receive(wire.NewAck(id, lbl(101)))
	}
	if st := p.Stats(); st.Delivered != k || st.MsgSet != k {
		t.Fatalf("setup: delivered %d, |MSG_i| %d, want %d", st.Delivered, st.MsgSet, k)
	}
	return p, msgs, acks
}

// recvSink keeps the measured Steps alive.
var recvSink Step

// TestMsgTableLayout: the table's layout is a pure function of the
// messages filed — two processes that hear the same messages in the same
// order, under different tag_ack streams of their own, walk their tables
// in the same order, first contact first, over the same index slots —
// and its slot memory stays at most 16 bytes per record at every size.
// Half the tags come from a flow source, which pins Hi.
func TestMsgTableLayout(t *testing.T) {
	flow := ident.NewFlowSource(0xf10, xrand.New(8))
	random := ident.NewSource(xrand.New(9))
	ids := make([]wire.MsgID, 3000)
	for i := range ids {
		src := random
		if i%2 == 0 {
			src = flow
		}
		ids[i] = wire.MsgID{Tag: src.Next(), Body: fmt.Sprint(i)}
	}
	var tables [2]*msgTable
	for k := range tables {
		p := NewMajority(3, ident.NewSource(xrand.New(uint64(k+1))), Config{})
		for _, id := range ids {
			p.Receive(wire.NewMsg(id))
			if n, b := p.recs.len(), p.recs.byTag.Bytes(); b > 16*n {
				t.Fatalf("%d records hold %d index bytes, %.1f per record; the bound is 16", n, b, float64(b)/float64(n))
			}
		}
		checkProcRecords(t, p)
		tables[k] = &p.recs
	}
	var order []wire.MsgID
	for rec := range tables[0].all {
		order = append(order, rec.id)
	}
	if !slices.Equal(order, ids) {
		t.Fatal("the table does not walk its records in the order of first contact")
	}
	if a, b := slices.Collect(tables[0].byTag.All), slices.Collect(tables[1].byTag.All); !slices.Equal(a, b) {
		t.Fatal("the same messages left two different index layouts")
	}
}

// TestReceiveDuplicateAllocs pins the cost of the steady state on fair
// lossy channels: a duplicate ACK for a delivered message resolves its
// record by tag and allocates nothing (no string for the lookup key, no
// Step slice); a duplicate MSG through Receive allocates exactly its
// reply's Step.Broadcasts slice — the ACK shares the record's body bytes
// instead of copying them — and through ReceiveTo into a Step with room,
// the way host.Loop feeds it, nothing at all.
func TestReceiveDuplicateAllocs(t *testing.T) {
	p, msgs, acks := deliveredMajority(t, 200)
	i := 0
	if got := testing.AllocsPerRun(400, func() { recvSink = p.Receive(acks[i%len(acks)]); i++ }); got != 0 {
		t.Errorf("Majority: duplicate ACK allocates %v, want 0", got)
	}
	if got := testing.AllocsPerRun(400, func() { recvSink = p.Receive(msgs[i%len(msgs)]); i++ }); got != 1 {
		t.Errorf("Majority: duplicate MSG allocates %v, want 1 (Step.Broadcasts)", got)
	}
	step := Step{Broadcasts: make([]wire.Message, 0, 1)}
	if got := testing.AllocsPerRun(400, func() {
		step.Broadcasts = step.Broadcasts[:0]
		p.ReceiveTo(&step, &msgs[i%len(msgs)])
		i++
	}); got != 0 {
		t.Errorf("Majority: duplicate MSG through ReceiveTo allocates %v, want 0", got)
	}
	if len(step.Broadcasts) != 1 || step.Broadcasts[0].Kind != wire.KindAck {
		t.Errorf("ReceiveTo appended %v, want the one ACK", step.Broadcasts)
	}

	// Algorithm 2: the unchanged re-ACK (an empty ACKΔ at the acker's
	// epoch) for a delivered message.
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	q := NewQuiescent(fd.Static{Theta: view}, ident.NewSource(xrand.New(6)), Config{DeltaAcks: true})
	reacks := make([]wire.Message, 200)
	for k := range reacks {
		id := wire.MsgID{Tag: ident.Tag{Hi: uint64(k) + 1, Lo: 7}, Body: fmt.Sprintf("payload-%08d", k)}
		q.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
		q.Receive(wire.NewAckSnapshot(id, lbl(101), 1, []ident.Tag{lbl(1)}))
		reacks[k] = wire.NewAckDelta(id, lbl(100), 1, nil, nil)
	}
	if st := q.Stats(); st.Delivered != len(reacks) {
		t.Fatalf("setup: delivered %d, want %d", st.Delivered, len(reacks))
	}
	if got := testing.AllocsPerRun(400, func() { recvSink = q.Receive(reacks[i%len(reacks)]); i++ }); got != 0 {
		t.Errorf("Quiescent: duplicate ACKΔ allocates %v, want 0", got)
	}
}

// TestMajorityTickAllocs: Task 1 walks MSG_i in place. Over 200 messages
// the pass allocates the returned Step.Broadcasts once and nothing else:
// wire.NewMsg shares each record's body bytes, so the body size does not
// matter.
func TestMajorityTickAllocs(t *testing.T) {
	for _, body := range []string{"", "sixteen byte body"} {
		p := NewMajority(3, ident.NewSource(xrand.New(5)), Config{})
		for i := 0; i < 200; i++ {
			p.Receive(wire.NewMsg(wire.MsgID{Tag: ident.Tag{Hi: uint64(i) + 1, Lo: 7}, Body: body}))
		}
		const want = 1.0
		if got := testing.AllocsPerRun(50, func() { recvSink = p.Tick() }); got != want {
			t.Errorf("body %q: Tick over 200 messages allocates %v, want %v", body, got, want)
		}
		if n := len(recvSink.Broadcasts); n != 200 {
			t.Errorf("body %q: Tick re-sent %d messages, want 200", body, n)
		}
	}
}

// TestMajorityRestoreRejectsDuplicateMessage: a snapshot naming one
// message twice in ALL_ACK would list its one record twice in ackOrder
// (CheckOnTick and the next Snapshot would visit it twice). Restore
// rejects it, as Quiescent.Restore does.
func TestMajorityRestoreRejectsDuplicateMessage(t *testing.T) {
	p := NewMajority(3, ident.NewSource(xrand.New(5)), Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewMsg(id))
	p.Receive(wire.NewAck(id, lbl(100)))
	snap := p.Snapshot()

	// The ALL_ACK section closes the payload: count, then the entries.
	entry := appendTagList(appendMsgID(nil, id), []ident.Tag{lbl(100)})
	payload := snap[:len(snap)-8]
	if !bytes.HasSuffix(payload, entry) {
		t.Fatal("setup: snapshot does not end in the ALL_ACK entry")
	}
	w := append([]byte(nil), payload[:len(payload)-len(entry)-4]...)
	w = appendU32(w, 2)
	w = append(w, entry...)
	w = append(w, entry...)
	w = appendU64(w, 0)
	// The doubled entry decodes to the same logical state, so the
	// original fingerprint makes the digest valid: only the semantic gate
	// stands between this snapshot and a running process.
	doubled := restamp(w, p.Fingerprint())

	fresh := NewMajority(3, ident.NewSource(xrand.New(5)), Config{})
	if err := fresh.Restore(doubled); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("Restore of a doubled ALL_ACK entry: %v, want ErrSnapshotMismatch", err)
	}
	fresh = NewMajority(3, ident.NewSource(xrand.New(5)), Config{})
	if err := fresh.Restore(snap); err != nil {
		t.Fatalf("Restore of the original snapshot: %v", err)
	}
	checkProcRecords(t, fresh)
}
