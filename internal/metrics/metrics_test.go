package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("q%.2f = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatal("min/max")
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean %g", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramUnsortedInput(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{5, 1, 9, 3, 7} {
		h.Observe(v)
	}
	if h.Quantile(0.5) != 5 {
		t.Fatalf("median %d", h.Quantile(0.5))
	}
	// Interleaving observes and reads must stay consistent.
	h.Observe(0)
	if h.Min() != 0 {
		t.Fatal("min after late observe")
	}
}

func TestHistogramQuantileMonotoneQuick(t *testing.T) {
	f := func(vals []int16) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(int64(v))
		}
		prev := int64(math.MinInt64)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if len(vals) > 0 && cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSummaryFormat(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	if h.Summary() == "" {
		t.Fatal("summary empty")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatal("N")
	}
	if math.Abs(w.Mean()-5) > 1e-9 {
		t.Fatalf("mean %g", w.Mean())
	}
	// Sample std of this classic set is ~2.138.
	if math.Abs(w.Std()-2.13809) > 1e-4 {
		t.Fatalf("std %g", w.Std())
	}
	var single Welford
	single.Add(3)
	if single.Std() != 0 {
		t.Fatal("std of one sample")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				vals[i] = float64(i)
			}
		}
		var w Welford
		var sum float64
		for _, v := range vals {
			w.Add(v)
			sum += v
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		std := math.Sqrt(ss / float64(len(vals)-1))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Std()-std) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
