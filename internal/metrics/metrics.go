// Package metrics provides the small statistics toolkit the benchmark
// harness uses: latency histograms with quantiles and streaming
// mean/stddev.
//
// Everything is plain int64/float64 arithmetic with deterministic results;
// no wall-clock time is involved anywhere (the simulator's virtual time is
// just an int64).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram collects int64 observations (virtual-time latencies, counts)
// and reports exact quantiles. Observations are kept; the scales in this
// repository (≤ millions of points) make exactness affordable and the
// results reproducible.
type Histogram struct {
	vals   []int64
	sorted bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.vals = append(h.vals, v)
	h.sorted = false
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return len(h.vals) }

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Slice(h.vals, func(i, j int) bool { return h.vals[i] < h.vals[j] })
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.sort()
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[len(h.vals)-1]
	}
	rank := int(math.Ceil(q*float64(len(h.vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.vals[rank]
}

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.vals {
		sum += float64(v)
	}
	return sum / float64(len(h.vals))
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.sort()
	return h.vals[len(h.vals)-1]
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.sort()
	return h.vals[0]
}

// Summary renders "mean/p50/p99/max" for tables.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("%.1f/%d/%d/%d", h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Welford is a streaming mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Std returns the sample standard deviation (0 for n < 2).
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}
