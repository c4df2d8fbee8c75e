package metrics

import (
	"slices"
	"testing"
)

func BenchmarkHistogramSummary(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 1<<16; i++ {
		h.Observe(int64(i * 2654435761 % 99991))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh copy each iteration, so every one pays the real
		// (unsorted) cost.
		_ = (&Histogram{vals: slices.Clone(h.vals)}).Summary()
	}
}
