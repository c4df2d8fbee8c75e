package fd

import (
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/xrand"
)

func TestHeartbeatTrustsOwnLabel(t *testing.T) {
	now := int64(0)
	h := NewHeartbeat(lbl(1), 50, func() int64 { return now })
	v := h.ATheta()
	if len(v) != 1 || v[0].Label != lbl(1) || v[0].Number != 1 {
		t.Fatalf("initial view %v", v)
	}
	if h.Label() != lbl(1) {
		t.Fatal("label accessor")
	}
}

func TestHeartbeatTrustAndExpiry(t *testing.T) {
	now := int64(0)
	h := NewHeartbeat(lbl(1), 50, func() int64 { return now })
	h.Hear(lbl(2))
	h.Hear(lbl(3))
	v := h.ATheta()
	if len(v) != 3 {
		t.Fatalf("want 3 trusted, got %v", v)
	}
	for _, p := range v {
		if p.Number != 3 {
			t.Fatalf("number should be |trusted| = 3: %v", v)
		}
	}
	// lbl(2) keeps beating, lbl(3) goes silent.
	now = 40
	h.Hear(lbl(2))
	now = 80 // lbl(3) last heard at 0: expired (80 > 0+50)
	v = h.APStar()
	if len(v) != 2 || v.Has(lbl(3)) {
		t.Fatalf("expired label still trusted: %v", v)
	}
	if n, _ := v.Lookup(lbl(2)); n != 2 {
		t.Fatalf("number should shrink with the trusted set: %v", v)
	}
	// A late heartbeat re-trusts (pre-GST behaviour).
	h.Hear(lbl(3))
	if !h.ATheta().Has(lbl(3)) {
		t.Fatal("revived label not trusted")
	}
}

func TestHeartbeatOwnLabelNeverExpires(t *testing.T) {
	now := int64(0)
	h := NewHeartbeat(lbl(1), 10, func() int64 { return now })
	now = 1_000_000
	if !h.ATheta().Has(lbl(1)) {
		t.Fatal("own label expired")
	}
}

func TestHeartbeatHearingOwnLabelHarmless(t *testing.T) {
	now := int64(0)
	h := NewHeartbeat(lbl(1), 10, func() int64 { return now })
	h.Hear(lbl(1)) // own heartbeats loop back over the self-link
	v := h.ATheta()
	if len(v) != 1 {
		t.Fatalf("own label double-counted: %v", v)
	}
}

func TestHeartbeatSynchronousRunSatisfiesAxioms(t *testing.T) {
	// Three processes, one crashes at t=100. Heartbeats every 10 with
	// delay 1, timeout 30: after the crash expires, every live
	// detector's view must be exactly the correct labels with
	// number = |Correct| — the post-GST oracle shape.
	labels := []ident.Tag{lbl(1), lbl(2), lbl(3)}
	now := int64(0)
	clock := func() int64 { return now }
	hs := []*Heartbeat{
		NewHeartbeat(labels[0], 30, clock),
		NewHeartbeat(labels[1], 30, clock),
		NewHeartbeat(labels[2], 30, clock),
	}
	crashAt := map[int]int64{2: 100}
	for ; now < 300; now++ {
		if now%10 != 0 {
			continue
		}
		for i, h := range hs {
			if at, dead := crashAt[i]; dead && now >= at {
				continue // crashed: no more beats
			}
			for j := range hs {
				if at, dead := crashAt[j]; dead && now >= at {
					continue // crashed: hears nothing
				}
				hs[j].Hear(h.Label()) // delay < 1 tick, synchronous
			}
		}
	}
	for i := 0; i < 2; i++ {
		v := hs[i].APStar()
		if len(v) != 2 {
			t.Fatalf("p%d view %v, want the 2 correct labels", i, v)
		}
		if v.Has(labels[2]) {
			t.Fatalf("crashed label still trusted at p%d", i)
		}
		for _, p := range v {
			if p.Number != 2 {
				t.Fatalf("number %d, want |Correct| = 2", p.Number)
			}
		}
	}
}

func TestHeartbeatPanicsOnBadTimeout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeartbeat(lbl(1), 0, func() int64 { return 0 })
}

// TestHeartbeatViewNormalizedUnderAnyHearOrder: labels heard in any
// order, restored in any order, with the own label heard, unheard or
// changed by Relabel, always yield the view a sort over the trusted set
// would — sorted by label, own label included once, every number the
// view's size — and Heard reports the labels sorted.
func TestHeartbeatViewNormalizedUnderAnyHearOrder(t *testing.T) {
	rng := xrand.New(21)
	for round := 0; round < 200; round++ {
		now := int64(100)
		h := NewHeartbeat(lbl(uint64(1+rng.Intn(12))), 10, func() int64 { return now })
		times := make(map[ident.Tag]int64)
		for i, hears := 0, rng.Intn(20); i < hears; i++ {
			l := lbl(uint64(1 + rng.Intn(12)))
			now = int64(80 + rng.Intn(21))
			h.Hear(l)
			times[l] = now
		}
		if rng.Bool(0.5) {
			// Round-trip the heard list through a shuffled restore.
			entries := h.Heard()
			for i := len(entries) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				entries[i], entries[j] = entries[j], entries[i]
			}
			h.RestoreHeard(entries)
		}
		if rng.Bool(0.5) {
			h.Relabel(lbl(uint64(1 + rng.Intn(12))))
		}
		now = 100
		heard := h.Heard()
		if len(heard) != len(times) {
			t.Fatalf("round %d: Heard has %d labels, want %d", round, len(heard), len(times))
		}
		for i, e := range heard {
			if e.At != times[e.Label] || (i > 0 && !heard[i-1].Label.Less(e.Label)) {
				t.Fatalf("round %d: Heard not sorted or wrong time: %+v", round, heard)
			}
		}
		want := View{{Label: h.Label()}}
		for l, at := range times {
			if l != h.Label() && now-at <= 10 {
				want = append(want, Pair{Label: l})
			}
		}
		want = Normalize(want)
		for i := range want {
			want[i].Number = len(want)
		}
		if got := h.ATheta(); !got.Equal(want) {
			t.Fatalf("round %d: view %v, want %v", round, got, want)
		}
	}
}
