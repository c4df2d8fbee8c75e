package urb

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Tests for the retirement index (DESIGN.md §10): the dirty queue that
// lets a Tick under unchanged views visit only the messages whose ACK
// state changed.

// indexAt names the point of a process's life checkDirtyIndex inspects.
type indexAt int

const (
	// midStep: between any two inputs, where anything may be queued.
	midStep indexAt = iota
	// restored: right after Restore, which queues every state.
	restored
	// ticked: right after a Tick, which drains the queue.
	ticked
)

// checkDirtyIndex verifies the index's structural invariant on p: every
// tracked state sits at its recorded ackOrder position and points at
// the process's queue, a state is dirty iff it is queued exactly once,
// and the queue holds nothing else; every state's label tables are
// consistent (checkTables), and every interned set's refcount is the
// number of views sharing it (checkInterned). After a Restore every
// state is queued; after a Tick none is. Both also free the claims of
// every settled record (checkClaimsLive).
func checkDirtyIndex(t testing.TB, p *Quiescent, at indexAt) {
	t.Helper()
	queued := make(map[*ackState]int, len(*p.dirtyQ))
	for _, st := range *p.dirtyQ {
		queued[st]++
	}
	for i, rec := range p.ackOrder {
		st := rec.st
		if st == nil {
			t.Fatalf("index: ackOrder[%d] has no state", i)
		}
		if st.q != p.dirtyQ || int(st.pos) != i {
			t.Fatalf("index: state at ackOrder[%d] records pos %d (own queue: %v)", i, st.pos, st.q == p.dirtyQ)
		}
		if n := queued[st]; (st.dirty && n != 1) || (!st.dirty && n != 0) {
			t.Fatalf("index: ackOrder[%d] dirty=%v but queued %d times", i, st.dirty, n)
		}
		delete(queued, st)
		if err := st.checkTables(); err != nil {
			t.Fatalf("index: ackOrder[%d]: %v", i, err)
		}
	}
	if len(queued) != 0 {
		t.Fatalf("index: %d queued states are not tracked", len(queued))
	}
	if err := p.checkInterned(); err != nil {
		t.Fatalf("index: %v", err)
	}
	switch at {
	case restored:
		if len(*p.dirtyQ) != len(p.ackOrder) {
			t.Fatalf("index: %d of %d states queued after Restore", len(*p.dirtyQ), len(p.ackOrder))
		}
	case ticked:
		if len(*p.dirtyQ) != 0 {
			t.Fatalf("index: %d states still queued after Tick", len(*p.dirtyQ))
		}
	}
	if at != midStep {
		if err := p.checkClaimsLive(); err != nil {
			t.Fatalf("index: %v", err)
		}
	}
}

// checkClaimsLive verifies that only live messages hold claim state:
// rec.st != nil ⇒ !rec.delivered || rec.slot >= 0. A delivered message
// outside MSG_i is settled, and Tick and Restore free its claims.
func (p *Quiescent) checkClaimsLive() error {
	for rec := range p.recs.all {
		if rec.st != nil && rec.settled() {
			return fmt.Errorf("settled message %v still holds claim state (%d ackers)", rec.id, rec.st.ackers.Len())
		}
	}
	return nil
}

// checkInterned verifies the intern table against the views: every
// shared view's entry is the table's entry for its key, and every
// entry's refcount equals the number of views pointing at it — so
// neither a purge nor freed claim state leaks an interned set.
func (p *Quiescent) checkInterned() error {
	refs := make(map[*setEntry]int, len(p.sets.m))
	for _, rec := range p.ackOrder {
		st := rec.st
		for i := range st.ackers.Len() {
			if e := st.ackers.At(i).entry; e != nil {
				if p.sets.m[e.key] != e {
					return fmt.Errorf("%v: a view shares a set the intern table does not hold", rec.id)
				}
				refs[e]++
			}
		}
	}
	for key, e := range p.sets.m {
		if e.key != key || e.refs != refs[e] {
			return fmt.Errorf("interned set %v: refcount %d, %d views share it", e.labels.Slice(), e.refs, refs[e])
		}
	}
	return nil
}

// TestQuiescentDirtyQueueEquivalence runs one randomized schedule — 20%
// loss, AΘ flapping between two views, AP* revealed late, a
// crash-recovery — through two identically seeded clusters. The
// reference cluster forgets its views before every Tick, so each of its
// Ticks is the full pass over the whole history; the other runs the
// index. Every Step of every input must be identical, and after every
// Tick the ticking process's fingerprint and snapshot bytes.
func TestQuiescentDirtyQueueEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{CheckOnTick: true},
		{DeltaAcks: true, PaceResyncs: true},
		{DeltaAcks: true, CheckOnTick: true, RetireBeforeSend: true},
		{DeltaAcks: true, CheckOnTick: true, CompactDelivered: true, EagerFirstSend: true},
		{CompactDelivered: true, RetireBeforeSend: true},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg, seed := cfg, seed
			t.Run(fmt.Sprintf("%+v/seed=%d", cfg, seed), func(t *testing.T) {
				rng := xrand.New(seed * 0x9e3779b9)
				n := 3 + rng.Intn(3)
				msgs := 6 + rng.Intn(6)
				viewA := fd.Normalize(fd.View{{Label: lbl(1), Number: n}, {Label: lbl(2), Number: n}})
				viewB := fd.Normalize(fd.View{{Label: lbl(1), Number: n}, {Label: lbl(3), Number: n}})

				ref := newEqCluster(n, seed, cfg, viewA.Clone())
				idx := newEqCluster(n, seed, cfg, viewA.Clone())
				// Equal Steps consume the two loss streams in lockstep.
				refLoss, idxLoss := xrand.New(seed+77), xrand.New(seed+77)
				ref.drop = func() bool { return refLoss.Bool(0.2) }
				idx.drop = func() bool { return idxLoss.Bool(0.2) }

				wireSent := 0
				same := func(what string, rs, is Step) {
					t.Helper()
					if !reflect.DeepEqual(rs, is) {
						t.Fatalf("%s diverged:\nfull pass: %+v\nindexed:   %+v", what, rs, is)
					}
					wireSent += len(is.Broadcasts)
					ref.absorb(rs)
					idx.absorb(is)
				}
				// Fingerprints are canonical (sorted); snapshot bytes also
				// expose the intern table's set instances, which depend on
				// the order the purge visits states in.
				sameState := func(i int) {
					t.Helper()
					if rf, xf := ref.procs[i].Fingerprint(), idx.procs[i].Fingerprint(); rf != xf {
						t.Fatalf("p%d fingerprints differ:\nfull pass: %s\nindexed:   %s", i, rf, xf)
					}
					if !bytes.Equal(ref.procs[i].Snapshot(), idx.procs[i].Snapshot()) {
						t.Fatalf("p%d snapshots differ under equal fingerprints", i)
					}
				}
				tick := func(i int) {
					t.Helper()
					ref.procs[i].viewsKnown = false
					rs, is := ref.procs[i].Tick(), idx.procs[i].Tick()
					checkDirtyIndex(t, idx.procs[i], ticked)
					same(fmt.Sprintf("p%d Tick", i), rs, is)
					sameState(i)
				}
				receive := func(i int) {
					t.Helper()
					if len(idx.queues[i]) == 0 {
						return
					}
					m := idx.queues[i][0]
					if !reflect.DeepEqual(ref.queues[i][0], m) {
						t.Fatalf("p%d inboxes diverged: %+v vs %+v", i, ref.queues[i][0], m)
					}
					ref.queues[i], idx.queues[i] = ref.queues[i][1:], idx.queues[i][1:]
					rs, is := ref.procs[i].Receive(m), idx.procs[i].Receive(m)
					checkDirtyIndex(t, idx.procs[i], midStep)
					same(fmt.Sprintf("p%d Receive(%v)", i, m.Kind), rs, is)
				}
				broadcast := func(i, k int) {
					t.Helper()
					body := []byte(fmt.Sprintf("m%d", k))
					_, rs := ref.procs[i].Broadcast(body)
					_, is := idx.procs[i].Broadcast(body)
					same("Broadcast", rs, is)
				}
				setViews := func(theta, star fd.View) {
					ref.theta, idx.theta = theta.Clone(), theta.Clone()
					ref.star, idx.star = star.Clone(), star.Clone()
				}

				steps := 600 + rng.Intn(300)
				crashAt := steps/3 + rng.Intn(steps/3)
				crashProc := rng.Intn(n)
				revealAt := 2 * steps / 3
				theta, star := viewA, fd.View(nil)
				sent := 0
				for step := 0; step < steps; step++ {
					if step == revealAt {
						star = viewB
						setViews(theta, star)
					}
					if step == crashAt {
						ref.recoverProc(t, crashProc, seed, cfg)
						idx.recoverProc(t, crashProc, seed, cfg)
						checkDirtyIndex(t, idx.procs[crashProc], restored)
					}
					switch op := rng.Intn(20); {
					case op < 12:
						receive(rng.Intn(n))
					case op < 17:
						tick(rng.Intn(n))
					case op < 19:
						if sent < msgs {
							broadcast(rng.Intn(n), sent)
							sent++
						}
					default:
						// AΘ flaps: each shift strands the other view's
						// private label, which the D4 purge then removes.
						if theta.Equal(viewA) {
							theta = viewB
						} else {
							theta = viewA
						}
						setViews(theta, star)
					}
				}
				for ; sent < msgs; sent++ {
					broadcast(0, sent)
				}
				// Endgame on reliable links under the final views: the
				// schedule stays in lockstep until both clusters fall silent.
				ref.drop, idx.drop = nil, nil
				setViews(viewB, viewB)
				for round := 0; ; round++ {
					if round == 400 {
						t.Fatal("clusters did not quiesce within the drain budget")
					}
					for i := 0; i < n; i++ {
						for len(idx.queues[i]) > 0 {
							receive(i)
						}
					}
					before := wireSent
					for i := 0; i < n; i++ {
						tick(i)
					}
					if wireSent == before {
						break
					}
				}
				for i := 0; i < n; i++ {
					sameState(i)
					if got := idx.procs[i].RetiredCount(); got == 0 {
						t.Fatalf("p%d retired nothing: the schedule never reached the retirement guard", i)
					}
				}
			})
		}
	}
}

// TestQuiescentDirtyQueueVisitsInAckOrder: states queue in the order
// they changed, but Tick must visit them in ackOrder position order — the
// order the full pass walks — or the deliveries inside one Step (and with
// them every delivery digest) would depend on ACK arrival order. The
// view flaps away and back between two Ticks, so the second Tick runs
// the indexed pass yet finds two messages its CheckOnTick can deliver.
func TestQuiescentDirtyQueueVisitsInAckOrder(t *testing.T) {
	for _, fullPass := range []bool{false, true} {
		low := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
		high := fd.Normalize(fd.View{{Label: lbl(1), Number: 5}})
		theta := low
		det := &fd.Func{
			ThetaFn: func() fd.View { return theta },
			StarFn:  func() fd.View { return nil },
		}
		p := NewQuiescent(det, ident.NewSource(xrand.New(9)), Config{CheckOnTick: true})
		m1 := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 9}, Body: "m1"}
		m2 := wire.MsgID{Tag: ident.Tag{Hi: 2, Lo: 9}, Body: "m2"}
		p.Receive(wire.NewLabeledAck(m1, lbl(100), []ident.Tag{lbl(1)}))
		p.Receive(wire.NewLabeledAck(m2, lbl(100), []ident.Tag{lbl(1)}))
		p.Tick() // records the low view; both states clean
		theta = high
		p.Receive(wire.NewLabeledAck(m2, lbl(101), []ident.Tag{lbl(1)}))
		p.Receive(wire.NewLabeledAck(m1, lbl(101), []ident.Tag{lbl(1)}))
		if q := *p.dirtyQ; len(q) != 2 || q[0] != p.ackState(m2) || q[1] != p.ackState(m1) {
			t.Fatal("setup: want the queue in arrival order [m2, m1]")
		}
		theta = low
		if fullPass {
			p.viewsKnown = false
		}
		s := p.Tick()
		if len(s.Deliveries) != 2 || s.Deliveries[0].ID != m1 || s.Deliveries[1].ID != m2 {
			t.Fatalf("fullPass=%v: Tick delivered %+v, want m1 then m2", fullPass, s.Deliveries)
		}
	}
}

// retireOne drives one message through its whole life on a lone process
// whose views need a single acker: broadcast, ACK, Tick (send + retire).
func retireOne(t testing.TB, p *Quiescent, k int) {
	t.Helper()
	id, _ := p.Broadcast([]byte(fmt.Sprintf("m%d", k)))
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	p.Tick()
	if p.KnowsMsg(id) {
		t.Fatalf("round %d: message not retired", k)
	}
}

// TestQuiescentIdleTickVisitsNothing is history independence as a count:
// after 5,000 messages have been broadcast, delivered and retired, an
// idle Tick visits no ackState at all, and the whole run visited each
// message a bounded number of times.
func TestQuiescentIdleTickVisitsNothing(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 1}})
	p := NewQuiescent(fd.Static{Theta: view, Star: view}, ident.NewSource(xrand.New(5)), Config{})
	const rounds = 5000
	for k := 0; k < rounds; k++ {
		retireOne(t, p, k)
	}
	if p.RetiredCount() != rounds || p.msgs.len() != 0 {
		t.Fatalf("setup: retired %d/%d, |MSG|=%d", p.RetiredCount(), rounds, p.msgs.len())
	}
	if p.visited > 2*rounds {
		t.Fatalf("%d rounds visited %d states: Tick still walks the history", rounds, p.visited)
	}
	before := p.visited
	for i := 0; i < 3; i++ {
		if s := p.Tick(); len(s.Broadcasts)+len(s.Deliveries) != 0 {
			t.Fatalf("idle Tick produced %+v", s)
		}
	}
	if got := p.visited - before; got != 0 {
		t.Fatalf("idle Ticks visited %d ackStates over a history of %d, want 0", got, rounds)
	}
	checkDirtyIndex(t, p, ticked)
}

// tickSink keeps the measured Tick's result alive.
var tickSink Step

// TestQuiescentIdleTickAllocatesNothing: a quiescent process — history
// behind it, MSG_i empty, views unchanged — pays no allocation per Tick.
func TestQuiescentIdleTickAllocatesNothing(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 1}})
	p := NewQuiescent(fd.Static{Theta: view, Star: view}, ident.NewSource(xrand.New(6)), Config{CheckOnTick: true})
	for k := 0; k < 50; k++ {
		retireOne(t, p, k)
	}
	if got := testing.AllocsPerRun(100, func() { tickSink = p.Tick() }); got != 0 {
		t.Fatalf("idle Tick allocates %.0f times, want 0", got)
	}
}

// TestQuiescentReqTickDroppedNextTick is the regression test for the
// resync limiter outliving its tick: an ACKREQ for an acker that never
// answers, recorded on an otherwise clean, delivered message, must be
// gone one Tick later (and so from every later snapshot). AP* asks for a
// third claimant, so the message stays in MSG_i and keeps its claims;
// once it retires, a gap delta creates no state and asks for nothing.
func TestQuiescentReqTickDroppedNextTick(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	det := &fd.Static{Theta: view, Star: fd.Normalize(fd.View{{Label: lbl(1), Number: 3}})}
	p := NewQuiescent(det, ident.NewSource(xrand.New(7)), Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewMsg(id))
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	p.Receive(wire.NewAckSnapshot(id, lbl(101), 1, []ident.Tag{lbl(1)}))
	p.Tick()
	p.Tick()
	st := p.ackState(id)
	if !p.HasDelivered(id) || st.dirty {
		t.Fatalf("setup: delivered=%v dirty=%v, want a clean delivered message", p.HasDelivered(id), st.dirty)
	}
	// An empty delta from an acker never seen: a gap, so a resync request.
	s := p.Receive(wire.NewAckDelta(id, lbl(200), 5, nil, nil))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("setup: want one ACKREQ, got %+v", s.Broadcasts)
	}
	if len(st.reqTick) != 1 {
		t.Fatalf("setup: reqTick = %v, want the one request recorded", st.reqTick)
	}
	checkDirtyIndex(t, p, midStep)
	p.Tick() // the acker crashed: nobody answers
	if st.reqTick != nil {
		t.Fatalf("reqTick outlived its tick: %v", st.reqTick)
	}
	checkDirtyIndex(t, p, ticked)

	det.Star = view
	p.Tick()
	if p.KnowsMsg(id) || p.ackState(id) != nil {
		t.Fatalf("setup: in MSG_i %v, claims %v; want retired and freed", p.KnowsMsg(id), p.ackState(id))
	}
	if s := p.Receive(wire.NewAckDelta(id, lbl(200), 9, nil, nil)); len(s.Broadcasts) != 0 {
		t.Fatalf("gap delta for a retired message sent %+v, want nothing", s.Broadcasts)
	}
	if p.ackState(id) != nil || p.Stats().AckEntries != 0 {
		t.Fatal("gap delta for a retired message reopened its claims")
	}
	checkDirtyIndex(t, p, ticked)
}

// TestMsgSetRemoveKeepsInsertionOrder: tombstoned removal and in-place
// compaction never reorder the survivors or lose track of an entry.
func TestMsgSetRemoveKeepsInsertionOrder(t *testing.T) {
	rng := xrand.New(8)
	var s msgSet
	var want []*msgRec
	next := 0
	for step := 0; step < 4000; step++ {
		if len(want) == 0 || rng.Intn(5) < 2 {
			rec := &msgRec{id: wire.MsgID{Tag: ident.Tag{Hi: uint64(next) + 1, Lo: 1}, Body: "b"}, slot: -1}
			next++
			if !s.add(rec) || s.add(rec) {
				t.Fatalf("add %v misbehaved", rec.id)
			}
			want = append(want, rec)
		} else {
			// Mostly oldest-first, as retirement goes; sometimes anywhere.
			i := 0
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(want))
			}
			if !s.remove(want[i]) || want[i].slot >= 0 || s.remove(want[i]) {
				t.Fatalf("remove %v misbehaved", want[i].id)
			}
			want = append(want[:i], want[i+1:]...)
		}
		if s.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", step, s.len(), len(want))
		}
		if s.dead*2 > len(s.order) {
			t.Fatalf("step %d: %d tombstones in %d slots survived a removal", step, s.dead, len(s.order))
		}
	}
	got := s.appendLive(nil)
	if len(got) != len(want) {
		t.Fatalf("MSG_i has %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || s.order[want[i].slot] != want[i] {
			t.Fatalf("order diverged at %d: got %v want %v", i, got[i].id, want[i].id)
		}
	}
}

// TestQuiescentClaimStateFlat is run-length independence as state: a
// three-process cluster (the golden runs' sans-IO shape, every deviation
// on) broadcasts 50 and then 500 messages and runs to quiescence. Both
// times no claim state is left anywhere, and every retired message costs
// the snapshot the same bytes — its record, not its ACK tables.
func TestQuiescentClaimStateFlat(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 3}, {Label: lbl(2), Number: 3}, {Label: lbl(3), Number: 3}})
	var empty []int
	perMsg := make(map[int][]int)
	for _, msgs := range []int{0, 50, 500} {
		r := newGoldenRun(t, 3, mkGoldenQuiescent(goldenTuned))
		r.theta, r.star = view, view
		for k := 0; k < msgs; k++ {
			r.broadcast(k%3, []byte(fmt.Sprintf("m%04d", k)))
			r.round()
		}
		for k := 0; k < 20; k++ {
			r.round()
		}
		for i, gp := range r.procs {
			p := gp.(*Quiescent)
			st := p.Stats()
			if st.Delivered != msgs || st.Retired != msgs || st.MsgSet != 0 {
				t.Fatalf("%d messages, p%d: %+v, want all delivered and retired", msgs, i, st)
			}
			if st.AckEntries != 0 || st.AckLabelStorage != 0 || len(p.ackOrder) != 0 || p.sets.distinct() != 0 {
				t.Fatalf("%d messages, p%d: %+v, %d ALL_ACK entries, %d interned sets; want no claim state",
					msgs, i, st, len(p.ackOrder), p.sets.distinct())
			}
			checkDirtyIndex(t, p, ticked)
			size := len(p.Snapshot())
			if msgs == 0 {
				empty = append(empty, size)
				continue
			}
			if (size-empty[i])%msgs != 0 {
				t.Fatalf("%d messages, p%d: %d snapshot bytes over %d empty is no whole number per message", msgs, i, size, empty[i])
			}
			perMsg[msgs] = append(perMsg[msgs], (size-empty[i])/msgs)
		}
	}
	if !reflect.DeepEqual(perMsg[50], perMsg[500]) {
		t.Fatalf("snapshot bytes per retired message: %v at 50, %v at 500", perMsg[50], perMsg[500])
	}
	t.Logf("snapshot bytes per retired message: %v", perMsg[500])
}
