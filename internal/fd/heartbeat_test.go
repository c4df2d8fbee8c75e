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

// refView is the uncached view: the body Heartbeat.view had before it
// cached, kept as the reference the cache is held to.
func refView(h *Heartbeat, now int64) View {
	v := make(View, 0, len(h.heard)+1)
	own := false
	for _, e := range h.heard {
		if !own && !e.Label.Less(h.label) {
			v = append(v, Pair{Label: h.label})
			own = true
		}
		if e.Label != h.label && now-e.At <= h.timeout {
			v = append(v, Pair{Label: e.Label})
		}
	}
	if !own {
		v = append(v, Pair{Label: h.label})
	}
	for i := range v {
		v[i].Number = len(v)
	}
	return v
}

// sameSlice reports whether a and b are one slice: same length, same
// backing array.
func sameSlice(a, b View) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestHeartbeatViewShared: the view is handed out shared. Hearing a
// label it already lists, or a change that leaves the trusted set as it
// was, returns the cached slice; every change to the trusted set returns
// a new one, its capacity clipped; and no slice handed out is ever
// written afterwards.
func TestHeartbeatViewShared(t *testing.T) {
	var handed []View
	var copies []View
	for _, tc := range []struct {
		name string
		op   func(h *Heartbeat, now *int64)
		same bool
	}{
		{"hear a trusted label", func(h *Heartbeat, now *int64) { *now = 102; h.Hear(lbl(3)) }, true},
		{"hear the own label", func(h *Heartbeat, now *int64) { h.Hear(lbl(1)) }, true},
		{"still trusted at At+timeout", func(h *Heartbeat, now *int64) { *now = 105 }, true},
		{"restore the same entries", func(h *Heartbeat, now *int64) { h.RestoreHeard(h.Heard()) }, true},
		{"relabel to the own label", func(h *Heartbeat, now *int64) { h.Relabel(lbl(1)) }, true},
		{"hear a new label", func(h *Heartbeat, now *int64) { h.Hear(lbl(4)) }, false},
		{"hear an expired label again", func(h *Heartbeat, now *int64) { h.Hear(lbl(5)) }, false},
		{"earliest label gone at At+timeout+1", func(h *Heartbeat, now *int64) { *now = 106 }, false},
		{"relabel", func(h *Heartbeat, now *int64) { h.Relabel(lbl(9)) }, false},
		{"restore other entries", func(h *Heartbeat, now *int64) {
			h.RestoreHeard([]HeardLabel{{Label: lbl(3), At: 100}})
		}, false},
		{"clock earlier than built", func(h *Heartbeat, now *int64) { *now = 50 }, false},
	} {
		// Own label 1; label 2 trusted until 105, label 3 until 110,
		// label 5 expired since 61.
		now := int64(100)
		h := NewHeartbeat(lbl(1), 10, func() int64 { return now })
		h.RestoreHeard([]HeardLabel{{Label: lbl(2), At: 95}, {Label: lbl(3), At: 100}, {Label: lbl(5), At: 50}})
		before := h.ATheta()
		if !sameSlice(h.APStar(), before) || !sameSlice(h.ATheta(), before) {
			t.Fatalf("%s: an unchanged view was not handed out again", tc.name)
		}
		if a := testing.AllocsPerRun(100, func() { _ = h.ATheta() }); a != 0 {
			t.Fatalf("%s: %.0f allocs per unchanged view, want 0", tc.name, a)
		}
		tc.op(h, &now)
		after := h.ATheta()
		if want := refView(h, now); !after.Equal(want) {
			t.Fatalf("%s: view %v, want %v", tc.name, after, want)
		}
		if cap(after) != len(after) {
			t.Fatalf("%s: view capacity %d, want it clipped to %d", tc.name, cap(after), len(after))
		}
		if sameSlice(after, before) != tc.same {
			t.Fatalf("%s: same slice %v, want %v (before %v, after %v)", tc.name, !tc.same, tc.same, before, after)
		}
		handed = append(handed, before, after)
		copies = append(copies, before.Clone(), after.Clone())
		// More reads and hears after the fact must leave both alone.
		h.Hear(lbl(6))
		now += 7
		_ = h.APStar()
	}
	for i, v := range handed {
		if !v.Equal(copies[i]) {
			t.Fatalf("a view handed out changed afterwards: %v, was %v", v, copies[i])
		}
	}
}

// FuzzHeartbeatView plays random operation sequences — hear a label at
// some time, step the clock forward or back, relabel, restore a subset
// of the heard list — and holds the cached view to the uncached
// reference after every one: equal to it, the same slice whenever equal
// to the previous read, and no slice handed out ever changed.
func FuzzHeartbeatView(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 1, 0, 3, 1, 0, 8, 1, 0, 8, 2, 2, 0, 3, 5, 0})
	f.Add([]byte{1, 0, 2, 0, 1, 0, 1, 1, 0, 0xff, 0, 3, 2, 3, 0xff, 0xfe})
	f.Add([]byte{20, 0, 0, 0, 0, 1, 5, 1, 0, 21, 1, 0, 0xea, 2, 1, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		now := int64(1000)
		h := NewHeartbeat(lbl(1), 1+int64(data[0]%20), func() int64 { return now })
		var handed, copies []View
		prev := h.ATheta()
		handed, copies = append(handed, prev), append(copies, prev.Clone())
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			a, b := ops[1], int64(int8(ops[2]))
			switch ops[0] % 4 {
			case 0:
				h.hearAt(lbl(1+uint64(a%8)), now+b)
			case 1:
				now += b
			case 2:
				h.Relabel(lbl(1 + uint64(a%8)))
			case 3:
				var keep []HeardLabel
				for i, e := range h.Heard() {
					if a&(1<<(i%8)) != 0 {
						keep = append(keep, HeardLabel{Label: e.Label, At: e.At + b})
					}
				}
				h.RestoreHeard(keep)
			}
			got := h.ATheta()
			if want := refView(h, now); !got.Equal(want) {
				t.Fatalf("op %d at %d: view %v, want %v", ops[0]%4, now, got, want)
			}
			if !sameSlice(h.APStar(), got) {
				t.Fatal("AP* and AΘ reads of one view are different slices")
			}
			if got.Equal(prev) != sameSlice(got, prev) {
				t.Fatalf("view %v after %v: equal views must be the same slice, changed ones new", got, prev)
			}
			if !sameSlice(got, prev) {
				handed, copies = append(handed, got), append(copies, got.Clone())
			}
			prev = got
		}
		for i, v := range handed {
			if !v.Equal(copies[i]) {
				t.Fatalf("a view handed out changed afterwards: %v, was %v", v, copies[i])
			}
		}
	})
}
