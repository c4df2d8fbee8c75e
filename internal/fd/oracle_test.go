package fd

import (
	"testing"
)

// mkOracle builds an oracle over the given correctness vector.
func mkOracle(t *testing.T, cfg OracleConfig, correct []bool) (*Oracle, *GroundTruth) {
	t.Helper()
	cfg.N = len(correct)
	o := NewOracle(cfg, correct)
	return o, NewGroundTruth(o)
}

func TestOracleExactViews(t *testing.T) {
	correct := []bool{true, false, true, true, false}
	o, g := mkOracle(t, OracleConfig{Noise: NoiseExact, Seed: 1}, correct)
	if o.NumCorrect() != 3 {
		t.Fatalf("NumCorrect %d", o.NumCorrect())
	}
	for i, c := range correct {
		if !c {
			continue
		}
		for _, now := range []int64{0, 100, 100000} {
			v := o.ATheta(i, now)
			if err := g.CheckExactness(i, v); err != nil {
				t.Fatalf("ATheta: %v", err)
			}
			if err := g.CheckAccuracy(i, v); err != nil {
				t.Fatalf("ATheta accuracy: %v", err)
			}
			w := o.APStar(i, now)
			if err := g.CheckExactness(i, w); err != nil {
				t.Fatalf("APStar: %v", err)
			}
		}
	}
}

func TestOracleFaultyProcessView(t *testing.T) {
	correct := []bool{true, false, true}
	o, g := mkOracle(t, OracleConfig{Noise: NoiseExact, Seed: 2}, correct)
	v := o.ATheta(1, 0)
	if len(v) != 1 || v[0].Label != o.Label(1) || v[0].Number != 2 {
		t.Fatalf("faulty self view: %v", v)
	}
	if err := g.CheckAccuracy(1, v); err != nil {
		t.Fatalf("faulty view accuracy: %v", err)
	}
}

func TestOraclePreGSTAccuracyHolds(t *testing.T) {
	// Accuracy is perpetual: every pre-GST view in every noise mode must
	// satisfy it.
	correct := []bool{true, false, true, true, false, true}
	for _, mode := range []NoiseMode{NoiseBenign, NoiseAdversarial} {
		o, g := mkOracle(t, OracleConfig{Noise: mode, GST: 1000, NoisePeriod: 10, Seed: 3}, correct)
		for now := int64(0); now < 1000; now += 7 {
			for i, c := range correct {
				if !c {
					continue
				}
				if err := g.CheckAccuracy(i, o.ATheta(i, now)); err != nil {
					t.Fatalf("mode %v, t=%d, p%d ATheta: %v", mode, now, i, err)
				}
				if err := g.CheckAccuracy(i, o.APStar(i, now)); err != nil {
					t.Fatalf("mode %v, t=%d, p%d APStar: %v", mode, now, i, err)
				}
			}
		}
	}
}

func TestOracleAPStarPerpetualContainment(t *testing.T) {
	// Invariant 3: AP* at correct processes always contains all correct
	// labels with number ≥ |Correct|, in every noise mode.
	correct := []bool{true, true, false, true, false}
	for _, mode := range []NoiseMode{NoiseExact, NoiseBenign, NoiseAdversarial} {
		o, g := mkOracle(t, OracleConfig{Noise: mode, GST: 500, NoisePeriod: 13, Seed: 4}, correct)
		for now := int64(0); now < 800; now += 11 {
			for i, c := range correct {
				if !c {
					continue
				}
				if err := g.CheckAPStarContainment(i, o.APStar(i, now)); err != nil {
					t.Fatalf("mode %v t=%d: %v", mode, now, err)
				}
			}
		}
	}
}

func TestOraclePostGSTExactInAllModes(t *testing.T) {
	correct := []bool{true, false, true}
	for _, mode := range []NoiseMode{NoiseExact, NoiseBenign, NoiseAdversarial} {
		o, g := mkOracle(t, OracleConfig{Noise: mode, GST: 100, Seed: 5}, correct)
		for _, now := range []int64{100, 101, 5000} {
			for i, c := range correct {
				if !c {
					continue
				}
				if err := g.CheckExactness(i, o.ATheta(i, now)); err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				if err := g.CheckExactness(i, o.APStar(i, now)); err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
			}
		}
	}
}

func TestOracleDeterministicViews(t *testing.T) {
	correct := []bool{true, false, true, true}
	mk := func() *Oracle {
		return NewOracle(OracleConfig{N: 4, Noise: NoiseAdversarial, GST: 1000, NoisePeriod: 10, Seed: 6}, correct)
	}
	a, b := mk(), mk()
	for now := int64(0); now < 200; now += 3 {
		for i := 0; i < 4; i++ {
			if !a.ATheta(i, now).Equal(b.ATheta(i, now)) {
				t.Fatalf("ATheta diverged at p%d t=%d", i, now)
			}
			if !a.APStar(i, now).Equal(b.APStar(i, now)) {
				t.Fatalf("APStar diverged at p%d t=%d", i, now)
			}
		}
	}
}

func TestOracleBenignNeverShowsFaultyLabelsInTheta(t *testing.T) {
	correct := []bool{true, false, true, false, true}
	o, _ := mkOracle(t, OracleConfig{Noise: NoiseBenign, GST: 10000, NoisePeriod: 7, Seed: 7}, correct)
	faulty1, faulty3 := o.Label(1), o.Label(3)
	for now := int64(0); now < 500; now += 5 {
		for i, c := range correct {
			if !c {
				continue
			}
			v := o.ATheta(i, now)
			if v.Has(faulty1) || v.Has(faulty3) {
				t.Fatalf("benign ATheta leaked a faulty label at t=%d", now)
			}
		}
	}
}

func TestOracleAdversarialShowsFaultyLabelsPreGST(t *testing.T) {
	correct := []bool{true, false, true}
	o, _ := mkOracle(t, OracleConfig{Noise: NoiseAdversarial, GST: 10000, NoisePeriod: 7, Seed: 8}, correct)
	faulty := o.Label(1)
	seen := false
	for now := int64(0); now < 2000 && !seen; now += 7 {
		if o.ATheta(0, now).Has(faulty) {
			seen = true
		}
	}
	if !seen {
		t.Fatal("adversarial mode never exercised the stale-label path")
	}
}

func TestOracleRevealToFaultyAudience(t *testing.T) {
	correct := []bool{true, false, true, false}
	o, g := mkOracle(t, OracleConfig{Noise: NoiseExact, RevealToFaulty: 1, Seed: 9}, correct)
	// Faulty p1 is the revealed one; it sees correct labels.
	v := o.ATheta(1, 0)
	if !v.Has(o.Label(0)) || !v.Has(o.Label(2)) {
		t.Fatalf("revealed faulty process should see correct labels: %v", v)
	}
	// Faulty p3 is not revealed; it sees only itself.
	w := o.ATheta(3, 0)
	if len(w) != 1 || w[0].Label != o.Label(3) {
		t.Fatalf("unrevealed faulty process view: %v", w)
	}
	// Ground truth audience must reflect the reveal.
	if !g.Audience[0][1] {
		t.Fatal("audience of p0's label should include revealed faulty p1")
	}
	if g.Audience[0][3] {
		t.Fatal("audience of p0's label must exclude unrevealed faulty p3")
	}
	// Accuracy still holds for the revealed views.
	if err := g.CheckAccuracy(1, v); err != nil {
		t.Fatalf("revealed view accuracy: %v", err)
	}
}

func TestOracleHandleBindsClock(t *testing.T) {
	correct := []bool{true, true}
	o, g := mkOracle(t, OracleConfig{Noise: NoiseBenign, GST: 100, NoisePeriod: 5, Seed: 10}, correct)
	now := int64(0)
	h := o.Handle(0, func() int64 { return now })
	_ = h.ATheta() // pre-GST, may be anything legal
	now = 200
	if err := g.CheckExactness(0, h.ATheta()); err != nil {
		t.Fatalf("handle did not follow clock: %v", err)
	}
	if err := g.CheckExactness(0, h.APStar()); err != nil {
		t.Fatalf("handle APStar: %v", err)
	}
}

func TestOracleConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for N mismatch")
		}
	}()
	NewOracle(OracleConfig{N: 3}, []bool{true})
}

func TestOracleAllCorrect(t *testing.T) {
	correct := []bool{true, true, true}
	o, g := mkOracle(t, OracleConfig{Noise: NoiseBenign, GST: 50, NoisePeriod: 5, Seed: 11}, correct)
	for now := int64(0); now < 100; now += 3 {
		for i := range correct {
			if err := g.CheckAccuracy(i, o.ATheta(i, now)); err != nil {
				t.Fatal(err)
			}
			if err := g.CheckAPStarContainment(i, o.APStar(i, now)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(o.CorrectLabels()) != 3 {
		t.Fatal("CorrectLabels")
	}
}

func TestNoiseModeString(t *testing.T) {
	if NoiseExact.String() != "exact" || NoiseBenign.String() != "benign" ||
		NoiseAdversarial.String() != "adversarial" {
		t.Fatal("mode strings")
	}
	if NoiseMode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

// TestOracleViewsShared: the exact and faulty-self views are fixed for
// the run, so every call at any time hands out the same slice and
// allocates nothing, and a Handle whose view never changes reads no
// clock. (This inverts the earlier contract, under which every call
// returned a private clone.)
func TestOracleViewsShared(t *testing.T) {
	correct := []bool{true, false, true, true}
	exact, _ := mkOracle(t, OracleConfig{Noise: NoiseExact, RevealToFaulty: 1, Seed: 5}, correct)
	noisy, _ := mkOracle(t, OracleConfig{Noise: NoiseAdversarial, GST: 100, Seed: 6}, correct)
	for _, tc := range []struct {
		name  string
		o     *Oracle
		proc  int
		times []int64
	}{
		{"exact/correct", exact, 0, []int64{0, 1, 99, 100, 1 << 40}},
		{"exact/faulty", exact, 1, []int64{0, 1, 99, 100, 1 << 40}},
		{"noisy/faulty", noisy, 1, []int64{0, 1, 99, 100, 1 << 40}},
		{"noisy/correct-post-GST", noisy, 2, []int64{100, 101, 1 << 40}},
	} {
		for _, view := range []func(int, int64) View{tc.o.ATheta, tc.o.APStar} {
			first := view(tc.proc, tc.times[0])
			if len(first) == 0 || cap(first) != len(first) {
				t.Fatalf("%s: view %v has capacity %d: want it non-empty and clipped", tc.name, first, cap(first))
			}
			for _, now := range tc.times {
				if got := view(tc.proc, now); len(got) != len(first) || &got[0] != &first[0] {
					t.Fatalf("%s: view at %d is not the shared slice", tc.name, now)
				}
			}
			if a := testing.AllocsPerRun(100, func() { _ = view(tc.proc, tc.times[0]) }); a != 0 {
				t.Fatalf("%s: %.0f allocs per view, want 0", tc.name, a)
			}
		}
	}
	noClock := func() int64 {
		t.Fatal("a fixed view read the clock")
		return 0
	}
	for _, h := range []struct {
		o    *Oracle
		proc int
	}{{exact, 0}, {exact, 1}, {noisy, 1}} {
		d := h.o.Handle(h.proc, noClock)
		if th, want := d.ATheta(), h.o.ATheta(h.proc, 1<<40); &th[0] != &want[0] {
			t.Fatalf("proc %d: Handle's AΘ view is not the shared slice", h.proc)
		}
		if st, want := d.APStar(), h.o.APStar(h.proc, 1<<40); &st[0] != &want[0] {
			t.Fatalf("proc %d: Handle's AP* view is not the shared slice", h.proc)
		}
	}
}
