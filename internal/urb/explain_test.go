package urb

import (
	"strings"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// TestMajorityExplainPartitionedAcker is the acceptance scenario for the
// stall explainer (ISSUE 9): a 5-process majority cluster where three
// processes are partitioned away before the broadcast. The two reachable
// processes ack, evidence stalls at 2/3, and Explain must name the
// shortfall.
func TestMajorityExplainPartitionedAcker(t *testing.T) {
	const n = 5
	tags := tagsFor(42, n)
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = NewMajority(n, tags[i], Config{EagerFirstSend: true})
	}
	p := newPump(t, procs...)
	// Partition: processes 2, 3, 4 never see the broadcast.
	p.crash(2)
	p.crash(3)
	p.crash(4)
	stalledID, s := procs[0].Broadcast([]byte("stalled"))
	p.absorb(0, s)
	p.run(4)

	for i := 0; i < 2; i++ {
		if got := p.deliveredIDs(i); len(got) != 0 {
			t.Fatalf("process %d delivered %v with only 2/5 ackers reachable", i, got)
		}
	}
	maj := procs[0].(*Majority)
	ex := maj.Explain(stalledID)
	if !ex.Known || ex.Delivered {
		t.Fatalf("Explain: Known=%v Delivered=%v, want known+undelivered", ex.Known, ex.Delivered)
	}
	if !ex.Stalled() {
		t.Fatal("Explain: Stalled() = false for a known undelivered message")
	}
	if ex.Ackers != 2 || ex.Need != 3 {
		t.Fatalf("Explain: ackers %d/%d, want 2/3", ex.Ackers, ex.Need)
	}
	rep := ex.String()
	if !strings.Contains(rep, "NOT delivered") ||
		!strings.Contains(rep, "2/3 distinct tag_acks") ||
		!strings.Contains(rep, "missing 1 acker(s)") {
		t.Fatalf("Explain report does not name the missing evidence:\n%s", rep)
	}
}

func TestMajorityExplainUnknownAndDelivered(t *testing.T) {
	tags := tagsFor(7, 1)
	maj := NewMajority(1, tags[0], Config{})
	unknown := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 2}, Body: "?"}
	ex := maj.Explain(unknown)
	if ex.Known || ex.Stalled() {
		t.Fatalf("unknown message reported Known=%v Stalled=%v", ex.Known, ex.Stalled())
	}
	if !strings.Contains(ex.String(), "unknown here") {
		t.Fatalf("unknown report: %s", ex.String())
	}

	// n=1: loop the MSG back to pin our tag_ack, then loop the ACK back —
	// one distinct tag_ack meets the n=1 majority.
	id, _ := maj.Broadcast([]byte("solo"))
	for _, m := range maj.Receive(wire.NewMsg(id)).Broadcasts {
		maj.Receive(m)
	}
	ex = maj.Explain(id)
	if !ex.Delivered {
		t.Fatalf("n=1 broadcast not delivered; explain: %s", ex)
	}
	if ex.Stalled() {
		t.Fatal("delivered message reported stalled")
	}
}

// TestQuiescentExplainNamesMissingEvidence drives Algorithm 2 into a
// stall where one AΘ pair is half-satisfied and the other untouched,
// then checks Explain reports both gaps with exact counts.
func TestQuiescentExplainNamesMissingEvidence(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2}, fd.Pair{Label: lbl(2), Number: 2})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	// One acker claims lbl(1): 1/2 on the first pair, 0/2 on the second.
	if s := p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)})); len(s.Deliveries) != 0 {
		t.Fatal("premature delivery")
	}
	ex := p.Explain(id)
	if !ex.Known || ex.Delivered || !ex.Stalled() {
		t.Fatalf("Known=%v Delivered=%v", ex.Known, ex.Delivered)
	}
	if ex.Ackers != 1 {
		t.Fatalf("ackers = %d, want 1", ex.Ackers)
	}
	if len(ex.Gaps) != 2 {
		t.Fatalf("gaps = %v, want one per AΘ pair", ex.Gaps)
	}
	byLabel := map[ident.Tag]int{}
	for _, g := range ex.Gaps {
		if g.Need != 2 || !g.Short() {
			t.Fatalf("gap %v should be short of 2", g)
		}
		byLabel[g.Label] = g.Have
	}
	if byLabel[lbl(1)] != 1 || byLabel[lbl(2)] != 0 {
		t.Fatalf("claim counts per label: %v", byLabel)
	}
	s := ex.String()
	if !strings.Contains(s, "NOT delivered") || !strings.Contains(s, "1/2 claims") ||
		!strings.Contains(s, "0/2 claims") || !strings.Contains(s, "SHORT") {
		t.Fatalf("report does not name the gaps:\n%s", s)
	}
}

// TestQuiescentExplainRetirement checks the delivered-but-not-retired
// report: AP* shortfalls and stray acker labels both surface.
func TestQuiescentExplainRetirement(t *testing.T) {
	v := fd.Normalize(fd.View{{Label: lbl(1), Number: 1}, {Label: lbl(2), Number: 2}})
	det := fd.Static{Theta: v.Clone(), Star: v.Clone()}
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 3, Lo: 3}, Body: "m"}
	p.Receive(wire.NewMsg(id))
	// One claim on lbl(1) closes the (lbl(1),1) AΘ pair → deliver. The
	// acker also claims lbl(7), which is outside AP*.
	s := p.Receive(wire.NewLabeledAck(id, lbl(200), []ident.Tag{lbl(1), lbl(7)}))
	if len(s.Deliveries) != 1 {
		t.Fatalf("expected delivery, got %v", s.Deliveries)
	}
	ex := p.Explain(id)
	if !ex.Delivered || ex.Retired {
		t.Fatalf("Delivered=%v Retired=%v, want delivered unretired", ex.Delivered, ex.Retired)
	}
	if len(ex.RetireGaps) != 2 {
		t.Fatalf("retire gaps %v, want one per AP* pair", ex.RetireGaps)
	}
	var short, ok int
	for _, g := range ex.RetireGaps {
		if g.Short() {
			short++
		} else {
			ok++
		}
	}
	if short != 1 || ok != 1 {
		t.Fatalf("retire gaps %v: want (lbl2) short and (lbl1) closed", ex.RetireGaps)
	}
	if len(ex.StrayLabels) != 1 || ex.StrayLabels[0] != lbl(7) {
		t.Fatalf("stray labels %v, want [lbl(7)]", ex.StrayLabels)
	}
	rep := ex.String()
	if !strings.Contains(rep, "retirement guard") || !strings.Contains(rep, "outside AP* view") {
		t.Fatalf("retirement report:\n%s", rep)
	}
}

// TestHeartbeatHostExplainForwards checks the host forwards Explain to
// the wrapped algorithm.
func TestHeartbeatHostExplainForwards(t *testing.T) {
	h := NewHeartbeatHost(ident.NewSource(xrand.New(11)), 100, 2, func() int64 { return 0 }, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 5, Lo: 5}, Body: "m"}
	h.Receive(wire.NewMsg(id))
	ex := h.Explain(id)
	if ex.Algo != "quiescent" || !ex.Known || ex.Delivered {
		t.Fatalf("host explain: %+v", ex)
	}
}

// TestQuiescentExplainSettled: a delivered message outside MSG_i waits on
// no guard — its claims are freed at the next Tick — so Explain reports
// no gap of either kind for it: neither once it has retired, nor when it
// was delivered fast and so never entered MSG_i at all.
func TestQuiescentExplainSettled(t *testing.T) {
	v := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	p := newQui(t, fd.Static{Theta: v.Clone(), Star: v.Clone()}, Config{})
	retired := wire.MsgID{Tag: ident.Tag{Hi: 3, Lo: 3}, Body: "retired"}
	fast := wire.MsgID{Tag: ident.Tag{Hi: 4, Lo: 4}, Body: "fast"}
	p.Receive(wire.NewMsg(retired))
	for _, id := range []wire.MsgID{retired, fast} {
		p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
		p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1)}))
		if !p.HasDelivered(id) {
			t.Fatalf("setup: %v not delivered", id)
		}
	}
	settled := func(id wire.MsgID, wantRetired bool, ackers int) {
		t.Helper()
		ex := p.Explain(id)
		if !ex.Known || !ex.Delivered || ex.Retired != wantRetired || ex.Ackers != ackers {
			t.Fatalf("%v: Known=%v Delivered=%v Retired=%v Ackers=%d, want known, delivered, retired %v, %d ackers",
				id, ex.Known, ex.Delivered, ex.Retired, ex.Ackers, wantRetired, ackers)
		}
		if len(ex.Gaps) != 0 || len(ex.RetireGaps) != 0 || len(ex.StrayLabels) != 0 {
			t.Fatalf("%v: gaps %v, retire gaps %v, stray %v; want none", id, ex.Gaps, ex.RetireGaps, ex.StrayLabels)
		}
		if rep := ex.String(); strings.Contains(rep, "guard") || strings.Contains(rep, "SHORT") {
			t.Fatalf("%v: report names a guard:\n%s", id, rep)
		}
	}
	// Delivered fast, never retransmitted: settled at once, its claims
	// still held until the next Tick frees them.
	settled(fast, false, 2)
	p.Tick()
	if p.KnowsMsg(retired) {
		t.Fatal("setup: not retired")
	}
	settled(retired, true, 0)
	settled(fast, false, 0)
}
