package urb

import (
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

func lbl(h uint64) ident.Tag { return ident.Tag{Hi: h, Lo: 0xb} }

func newQui(t *testing.T, det fd.Detector, cfg Config) *Quiescent {
	t.Helper()
	return NewQuiescent(det, ident.NewSource(xrand.New(77)), cfg)
}

func staticFD(pairs ...fd.Pair) fd.Static {
	v := fd.Normalize(append(fd.View(nil), pairs...))
	return fd.Static{Theta: v.Clone(), Star: v.Clone()}
}

func TestQuiescentAckCarriesThetaLabels(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2}, fd.Pair{Label: lbl(2), Number: 2})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAck {
		t.Fatalf("want one ACK, got %v", s.Broadcasts)
	}
	got := ident.NewSet(s.Broadcasts[0].Labels...)
	if got.Len() != 2 || !got.Has(lbl(1)) || !got.Has(lbl(2)) {
		t.Fatalf("ACK labels %v", s.Broadcasts[0].Labels)
	}
}

func TestQuiescentDeliveryGuard(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	// One acker claiming the label: claims=1 < 2, no delivery.
	s := p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 0 {
		t.Fatal("premature delivery")
	}
	// Second acker claiming an unrelated label: still no delivery.
	s = p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(5)}))
	if len(s.Deliveries) != 0 {
		t.Fatal("unrelated label counted")
	}
	// Second claimant of the watched label: claims=2 >= 2 → deliver.
	s = p.Receive(wire.NewLabeledAck(id, lbl(102), []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 1 || s.Deliveries[0].ID != id {
		t.Fatalf("expected delivery, got %v", s.Deliveries)
	}
	if p.Claims(id, lbl(1)) != 2 || p.Ackers(id) != 3 {
		t.Fatalf("claims=%d ackers=%d", p.Claims(id, lbl(1)), p.Ackers(id))
	}
}

func TestQuiescentDuplicateAckerNotDoubleCounted(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	s := p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 0 {
		t.Fatal("same tag_ack delivered twice counted as two processes")
	}
	if p.Claims(id, lbl(1)) != 1 {
		t.Fatalf("claims=%d, want 1", p.Claims(id, lbl(1)))
	}
}

func TestQuiescentReplacementSemantics(t *testing.T) {
	// D1: a refreshed ACK replaces the acker's label set — additions
	// count up, removals count down.
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1), lbl(2)}))
	if p.Claims(id, lbl(1)) != 1 || p.Claims(id, lbl(2)) != 1 {
		t.Fatal("initial claims wrong")
	}
	// Refresh with lbl(2) gone and lbl(3) new.
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1), lbl(3)}))
	if p.Claims(id, lbl(1)) != 1 {
		t.Fatalf("stable label perturbed: %d", p.Claims(id, lbl(1)))
	}
	if p.Claims(id, lbl(2)) != 0 {
		t.Fatalf("removed label still claimed: %d", p.Claims(id, lbl(2)))
	}
	if p.Claims(id, lbl(3)) != 1 {
		t.Fatalf("added label not claimed: %d", p.Claims(id, lbl(3)))
	}
	if p.Ackers(id) != 1 {
		t.Fatalf("ackers %d, want 1", p.Ackers(id))
	}
}

func TestQuiescentDeliversWhenNumberDrops(t *testing.T) {
	// D2: with the paper's strict equality a number dropping from 3 to 2
	// after claims reached 3 would wedge forever; >= must deliver.
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 5}})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	p := newQui(t, det, Config{CheckOnTick: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	for i := uint64(0); i < 3; i++ {
		s := p.Receive(wire.NewLabeledAck(id, lbl(100+i), []ident.Tag{lbl(1)}))
		if len(s.Deliveries) != 0 {
			t.Fatal("premature delivery")
		}
	}
	// FD stabilises: number drops to 2 while claims is already 3.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	s := p.Tick()
	if len(s.Deliveries) != 1 {
		t.Fatalf("delivery missed after number dropped, got %v", s.Deliveries)
	}
}

func TestQuiescentRetirement(t *testing.T) {
	// Two correct processes' labels, number 2 each: once both ackers
	// claim both labels and the message is delivered, Task 1 retires it.
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2}, fd.Pair{Label: lbl(2), Number: 2})
	p := newQui(t, det, Config{})
	_, s := p.Broadcast([]byte("m"))
	id := wire.MsgID{Tag: ident.Tag{}, Body: "m"}
	// Recover the id from the first tick's MSG.
	s = p.Tick()
	if len(s.Broadcasts) != 1 {
		t.Fatal("expected the MSG broadcast")
	}
	id = s.Broadcasts[0].ID()
	both := []ident.Tag{lbl(1), lbl(2)}
	p.Receive(wire.NewLabeledAck(id, lbl(100), both))
	s = p.Receive(wire.NewLabeledAck(id, lbl(101), both))
	if len(s.Deliveries) != 1 {
		t.Fatal("should have delivered")
	}
	// Next tick: broadcast once more (paper line 54), then retire.
	s = p.Tick()
	if len(s.Broadcasts) != 1 {
		t.Fatal("final broadcast expected before retirement")
	}
	if p.KnowsMsg(id) {
		t.Fatal("message should have been retired from MSG")
	}
	if p.RetiredCount() != 1 || p.Stats().Retired != 1 {
		t.Fatal("retired count")
	}
	// Quiescence: subsequent ticks emit nothing.
	for i := 0; i < 10; i++ {
		if s := p.Tick(); len(s.Broadcasts) != 0 {
			t.Fatalf("tick %d not quiescent: %v", i, s.Broadcasts)
		}
	}
}

func TestQuiescentRetireBeforeSendSavesARound(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := newQui(t, det, Config{RetireBeforeSend: true})
	_, _ = p.Broadcast([]byte("m"))
	s := p.Tick()
	id := s.Broadcasts[0].ID()
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	// Guard already holds: the next tick retires without broadcasting.
	s = p.Tick()
	if len(s.Broadcasts) != 0 {
		t.Fatalf("RetireBeforeSend should skip the final broadcast, got %v", s.Broadcasts)
	}
	if p.KnowsMsg(id) {
		t.Fatal("not retired")
	}
}

func TestQuiescentRetirementBlockedByUncoveredPair(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1}, fd.Pair{Label: lbl(2), Number: 1})
	p := newQui(t, det, Config{})
	_, _ = p.Broadcast([]byte("m"))
	s := p.Tick()
	id := s.Broadcasts[0].ID()
	// Only lbl(1) is ever claimed; lbl(2) stays uncovered.
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	for i := 0; i < 5; i++ {
		p.Tick()
	}
	if !p.KnowsMsg(id) {
		t.Fatal("retired although a correct process never acked")
	}
}

func TestQuiescentRetirementBlockedByForeignLabel(t *testing.T) {
	// An acker claiming a label outside AP* blocks retirement (paper's
	// equality clause) until the label disappears from the acker's
	// refreshes or is purged as stale.
	theta := fd.Normalize(fd.View{
		{Label: lbl(1), Number: 1},
		{Label: lbl(7), Number: 2}, // foreign label still visible in AΘ
	})
	star := fd.Normalize(fd.View{{Label: lbl(1), Number: 1}})
	det := fd.Static{Theta: theta, Star: star}
	p := newQui(t, det, Config{})
	_, _ = p.Broadcast([]byte("m"))
	s := p.Tick()
	id := s.Broadcasts[0].ID()
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1), lbl(7)}))
	p.Tick()
	if !p.KnowsMsg(id) {
		t.Fatal("retired while an acker still claims a non-AP* label")
	}
}

func TestQuiescentPurgeUnblocksRetirement(t *testing.T) {
	// D4: a crashed acker's frozen ACK claims its own (now dead) label.
	// Once the label is gone from both views, the purge removes it and
	// retirement proceeds.
	view := fd.Normalize(fd.View{
		{Label: lbl(1), Number: 1},
		{Label: lbl(66), Number: 2}, // the faulty process's label, pre-GST
	})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	p := newQui(t, det, Config{})
	_, _ = p.Broadcast([]byte("m"))
	s := p.Tick()
	id := s.Broadcasts[0].ID()
	// The crashed acker's only ACK, claiming its own label.
	p.Receive(wire.NewLabeledAck(id, lbl(200), []ident.Tag{lbl(66)}))
	// A correct acker claiming the correct label.
	p.Receive(wire.NewLabeledAck(id, lbl(201), []ident.Tag{lbl(1)}))
	p.Tick()
	if !p.KnowsMsg(id) {
		t.Fatal("should be blocked: lbl(66) pair (number 2) is uncovered")
	}
	// GST: the faulty label vanishes from both views permanently.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 1}})
	p.Tick() // purge happens, guard re-evaluated
	if p.KnowsMsg(id) {
		t.Fatal("purge did not unblock retirement")
	}
	if p.Claims(id, lbl(66)) != 0 {
		t.Fatalf("stale claim survived purge: %d", p.Claims(id, lbl(66)))
	}
}

func TestQuiescentLateMsgDoesNotResurrect(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := newQui(t, det, Config{})
	_, _ = p.Broadcast([]byte("m"))
	s := p.Tick()
	id := s.Broadcasts[0].ID()
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	p.Tick() // retires
	if p.KnowsMsg(id) {
		t.Fatal("precondition: retired")
	}
	// A stale MSG copy straggles in: it must be ACKed (so slow peers can
	// still make progress) but must NOT re-enter MSG (paper line 9).
	s = p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAck {
		t.Fatalf("late MSG should still be ACKed, got %v", s.Broadcasts)
	}
	if p.KnowsMsg(id) {
		t.Fatal("late MSG resurrected a retired message")
	}
	for i := 0; i < 3; i++ {
		if s := p.Tick(); len(s.Broadcasts) != 0 {
			t.Fatal("resurrection broke quiescence")
		}
	}
}

func TestQuiescentFastDelivery(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 3, Lo: 3}, Body: "zoom"}
	s := p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 1 || !s.Deliveries[0].Fast {
		t.Fatalf("expected fast delivery, got %v", s.Deliveries)
	}
	// The fast-delivered message is not in MSG (never received as MSG),
	// so this process does not retransmit it.
	if p.KnowsMsg(id) {
		t.Fatal("fast-delivered message should not be in MSG")
	}
}

func TestQuiescentIntegrityAtMostOnce(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := newQui(t, det, Config{CheckOnTick: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 3, Lo: 3}, Body: "once"}
	total := 0
	for i := uint64(0); i < 5; i++ {
		s := p.Receive(wire.NewLabeledAck(id, lbl(100+i), []ident.Tag{lbl(1)}))
		total += len(s.Deliveries)
	}
	total += len(p.Tick().Deliveries)
	if total != 1 {
		t.Fatalf("delivered %d times", total)
	}
}

func TestQuiescentEmptyAPStarNeverRetires(t *testing.T) {
	det := fd.Static{
		Theta: fd.Normalize(fd.View{{Label: lbl(1), Number: 1}}),
		Star:  nil,
	}
	p := newQui(t, det, Config{})
	_, _ = p.Broadcast([]byte("m"))
	s := p.Tick()
	id := s.Broadcasts[0].ID()
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	for i := 0; i < 5; i++ {
		p.Tick()
	}
	if !p.KnowsMsg(id) {
		t.Fatal("retired with no failure detector evidence at all")
	}
}

func TestQuiescentIgnoresForeignKinds(t *testing.T) {
	p := newQui(t, staticFD(), Config{})
	s := p.Receive(wire.Message{Kind: wire.Kind(42), Body: []byte("junk"), Tag: ident.Tag{Hi: 1}})
	if len(s.Broadcasts)+len(s.Deliveries) != 0 {
		t.Fatal("unknown kinds must be ignored")
	}
}

func TestQuiescentClusterConvergesAndQuiesces(t *testing.T) {
	// Three processes with a shared exact "oracle-like" static view: all
	// deliver everything and all retire everything.
	const n = 3
	labels := []ident.Tag{lbl(1), lbl(2), lbl(3)}
	view := fd.Normalize(fd.View{
		{Label: labels[0], Number: n},
		{Label: labels[1], Number: n},
		{Label: labels[2], Number: n},
	})
	tags := tagsFor(404, n)
	procs := make([]Process, n)
	for i := range procs {
		det := fd.Static{Theta: view, Star: view}
		// Each process's AΘ shows all three labels; its ACKs therefore
		// claim all three, which is exactly the oracle's exact mode.
		procs[i] = NewQuiescent(det, tags[i], Config{})
	}
	pm := newPump(t, procs...)
	pm.broadcast(0, "x")
	pm.broadcast(1, "y")
	pm.run(4)
	for i := 0; i < n; i++ {
		if got := len(pm.deliveredIDs(i)); got != 2 {
			t.Fatalf("p%d delivered %d, want 2", i, got)
		}
		st := procs[i].Stats()
		if st.MsgSet != 0 {
			t.Fatalf("p%d still retransmits %d messages", i, st.MsgSet)
		}
	}
	// Quiescence: one more round generates zero traffic.
	before := len(pm.queue)
	for i, proc := range procs {
		s := proc.Tick()
		if len(s.Broadcasts) != 0 {
			t.Fatalf("p%d not quiescent", i)
		}
	}
	if len(pm.queue) != before {
		t.Fatal("queue grew")
	}
}

func TestQuiescentStatsShape(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := newQui(t, det, Config{})
	_, _ = p.Broadcast([]byte("a"))
	_, _ = p.Broadcast([]byte("b"))
	st := p.Stats()
	if st.MsgSet != 2 || st.Delivered != 0 || st.MyAcks != 0 {
		t.Fatalf("stats %+v", st)
	}
	id := wire.MsgID{Tag: ident.Tag{Hi: 6, Lo: 6}, Body: "c"}
	p.Receive(wire.NewMsg(id))
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	st = p.Stats()
	if st.MyAcks != 1 || st.AckEntries != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestQuiescentPurgeDropsDeadAckers: the D4 purge must delete acker
// entries whose entire label set belonged to crashed processes — not
// just empty their sets — so the acker table stops growing and
// retireReady stops scanning dead ackers forever. Retirement must still
// hold afterwards.
func TestQuiescentPurgeDropsDeadAckers(t *testing.T) {
	// Live view: labels 1 and 2, each needing 2 claimants. Label 3's
	// owner has crashed: it appears in no current view. AP* first asks
	// for a third claimant of label 1, so the message stays delivered and
	// in MSG_i across the purging Tick: a retired message's claims are
	// freed, and the purge would have nothing left to show.
	live := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}, {Label: lbl(2), Number: 2}})
	det := &fd.Static{Theta: live, Star: fd.Normalize(fd.View{{Label: lbl(1), Number: 3}, {Label: lbl(2), Number: 2}})}
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}

	// The message is known (so Task 1 retransmits and may retire it).
	p.Receive(wire.NewMsg(id))
	// Two live ackers claim both live labels; the crashed process's own
	// frozen ACK claims only its stale label 3.
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1), lbl(2)}))
	p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1), lbl(2)}))
	p.Receive(wire.NewLabeledAck(id, lbl(102), []ident.Tag{lbl(3)}))

	if !p.HasDelivered(id) {
		t.Fatal("delivery guard should have fired (claims[l1]=2 >= 2)")
	}
	if p.Ackers(id) != 3 {
		t.Fatalf("ackers=%d before purge, want 3", p.Ackers(id))
	}

	// Tick purges stale labels; the dead acker's set empties, so the
	// entry itself must go.
	p.Tick()
	if p.Ackers(id) != 2 {
		t.Fatalf("ackers=%d after purge, want 2 (dead acker entry kept)", p.Ackers(id))
	}
	if !p.KnowsMsg(id) || p.RetiredCount() != 0 {
		t.Fatal("setup: retired although AP* asks for a third claimant")
	}
	if st := p.Stats(); st.AckEntries != 2 {
		t.Fatalf("AckEntries=%d, want 2 after dead-acker drop", st.AckEntries)
	}
	// Once AP* is satisfied, retirement must still succeed (all AP* pairs
	// covered, no remaining acker claims outside AP*), and it frees the
	// claims.
	det.Star = live
	p.Tick()
	if p.KnowsMsg(id) {
		t.Fatal("message not retired after purge")
	}
	if p.RetiredCount() != 1 {
		t.Fatalf("retired=%d, want 1", p.RetiredCount())
	}
	if st := p.Stats(); st.AckEntries != 0 {
		t.Fatalf("AckEntries=%d after retirement, want 0", st.AckEntries)
	}
}

// TestQuiescentPurgedAckerReadmitted: a dropped acker that turns out to
// be alive (it re-ACKs with a live label) is re-admitted with correct
// claim accounting.
func TestQuiescentPurgedAckerReadmitted(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}

	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(7)})) // stale-only
	p.Tick()                                                         // purge drops the acker
	if p.Ackers(id) != 0 {
		t.Fatalf("ackers=%d after purge, want 0", p.Ackers(id))
	}
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	if p.Ackers(id) != 1 || p.Claims(id, lbl(1)) != 1 {
		t.Fatalf("re-admitted acker mis-accounted: ackers=%d claims=%d",
			p.Ackers(id), p.Claims(id, lbl(1)))
	}
}

// TestQuiescentClaimsMapDoesNotLeakDeadLabels: a claim count that drops
// to zero removes its map entry entirely — purged stale labels must not
// accumulate as permanent zero-valued keys.
func TestQuiescentClaimsMapDoesNotLeakDeadLabels(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}

	// 64 ackers, each claiming a distinct stale label plus the live one.
	for i := uint64(0); i < 64; i++ {
		p.Receive(wire.NewLabeledAck(id, lbl(100+i), []ident.Tag{lbl(1), lbl(200 + i)}))
	}
	p.Tick() // purge: every stale label dies; ackers keep {lbl(1)}
	st := p.ackState(id)
	if st.claims.Len() != 1 {
		t.Fatalf("claim table holds %d keys after purge, want 1 (dead labels leaked)", st.claims.Len())
	}
	if st.claims.Value(lbl(1)) != 64 {
		t.Fatalf("live label count corrupted: %d", st.claims.Value(lbl(1)))
	}
}
