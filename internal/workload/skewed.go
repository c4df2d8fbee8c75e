package workload

import (
	"fmt"
	"math"

	"anonurb/internal/sim"
	"anonurb/internal/xrand"
)

// fill pads body out to size bytes with a deterministic pattern keyed by
// stamp, so skewed workloads can model payload weight (the admission
// stage meters bytes, not messages) without the schedule losing its
// human-readable prefix.
func fill(body []byte, size int, stamp uint64) []byte {
	if len(body) >= size {
		return body
	}
	pad := xrand.New(xrand.HashStream(stamp, uint64(len(body)), uint64(size)))
	for len(body) < size {
		body = append(body, byte(pad.Uint64()))
	}
	return body
}

// ZipfWriters draws Count broadcasts with exponential inter-arrival times
// of mean MeanGap, attributing each to a process by a Zipf law over
// process rank: process r is chosen with probability proportional to
// 1/(r+1)^S. S=0 degenerates to uniform (PoissonWriters); S around 1 is
// the classic web-traffic skew; larger S concentrates almost everything
// on process 0. This is the "plausibly skewed production traffic" point
// between the uniform generators and the adversarial Flood.
type ZipfWriters struct {
	Count   int
	S       float64
	MeanGap float64
	Start   sim.Time
	Payload int
}

// Generate implements Broadcasts.
func (w ZipfWriters) Generate(n int, rng *xrand.Source) []sim.ScheduledBroadcast {
	count := w.Count
	if count < 1 {
		count = 1
	}
	// Inverse-CDF sampling over the n ranks. Precomputing the CDF keeps
	// the draw O(log n)-ish via linear scan on small n and, crucially,
	// consumes exactly one rng draw per broadcast for the rank, so the
	// schedule is a stable function of (seed, parameters).
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), w.S)
		cdf[r] = total
	}
	at := float64(w.Start)
	out := make([]sim.ScheduledBroadcast, 0, count)
	for i := 0; i < count; i++ {
		at += rng.Exp(w.MeanGap)
		u := rng.Float64() * total
		proc := n - 1
		for r := 0; r < n; r++ {
			if u < cdf[r] {
				proc = r
				break
			}
		}
		body := fmt.Appendf(nil, "z%d-%d", proc, i)
		out = append(out, sim.ScheduledBroadcast{
			At:   sim.Time(at) + 1,
			Proc: proc,
			Body: fill(body, w.Payload, uint64(i)),
		})
	}
	return out
}

// String implements Broadcasts.
func (w ZipfWriters) String() string {
	return fmt.Sprintf("zipf(%d,s=%g,gap=%g)", w.Count, w.S, w.MeanGap)
}

// BurstTrains schedules Trains bursts; each burst is PerTrain broadcasts
// back-to-back (Spacing apart) from one uniformly random process, and
// consecutive bursts are separated by exponential gaps of mean Gap. It
// models the thundering-herd pattern — a quiet system where one producer
// periodically dumps a backlog — that uniform Poisson traffic never
// produces.
type BurstTrains struct {
	Trains   int
	PerTrain int
	Spacing  sim.Time
	Gap      float64
	Start    sim.Time
	Payload  int
}

// Generate implements Broadcasts.
func (w BurstTrains) Generate(n int, rng *xrand.Source) []sim.ScheduledBroadcast {
	trains := w.Trains
	if trains < 1 {
		trains = 1
	}
	per := w.PerTrain
	if per < 1 {
		per = 1
	}
	spacing := w.Spacing
	if spacing < 1 {
		spacing = 1
	}
	at := float64(w.Start)
	out := make([]sim.ScheduledBroadcast, 0, trains*per)
	for t := 0; t < trains; t++ {
		at += rng.Exp(w.Gap)
		proc := rng.Intn(n)
		for k := 0; k < per; k++ {
			body := fmt.Appendf(nil, "b%d-%d-%d", t, proc, k)
			out = append(out, sim.ScheduledBroadcast{
				At:   sim.Time(at) + 1 + sim.Time(k)*spacing,
				Proc: proc,
				Body: fill(body, w.Payload, uint64(t)<<32|uint64(k)),
			})
		}
	}
	return out
}

// String implements Broadcasts.
func (w BurstTrains) String() string {
	return fmt.Sprintf("burst(%dx%d,gap=%g)", w.Trains, w.PerTrain, w.Gap)
}

// Flood is the adversarial single-broadcaster workload: process Flooder
// emits Count broadcasts of Payload bytes at Spacing apart — as fast and
// as heavy as the caller dares — while every other process broadcasts
// VictimMsgs small messages spread evenly across the flood window. The
// fair lossy channel model permits this sender ("fair" constrains the
// channel, not the producers), and without an admission stage the flood's
// MSG/ACK retransmissions legally evict the victims' frames from finite
// inboxes. This is the scenario liverun's TestFairAdmission gates.
type Flood struct {
	Flooder    int
	Count      int
	Spacing    sim.Time
	Payload    int
	VictimMsgs int
	VictimSize int
	Start      sim.Time
}

// Generate implements Broadcasts.
func (w Flood) Generate(n int, rng *xrand.Source) []sim.ScheduledBroadcast {
	count := w.Count
	if count < 1 {
		count = 1
	}
	spacing := w.Spacing
	if spacing < 1 {
		spacing = 1
	}
	flooder := w.Flooder % n
	if flooder < 0 {
		flooder += n
	}
	span := sim.Time(count-1)*spacing + 1
	out := make([]sim.ScheduledBroadcast, 0, count+(n-1)*w.VictimMsgs)
	for i := 0; i < count; i++ {
		body := fmt.Appendf(nil, "flood-%d", i)
		out = append(out, sim.ScheduledBroadcast{
			At:   w.Start + 1 + sim.Time(i)*spacing,
			Proc: flooder,
			Body: fill(body, w.Payload, uint64(i)),
		})
	}
	for p := 0; p < n; p++ {
		if p == flooder {
			continue
		}
		for k := 0; k < w.VictimMsgs; k++ {
			// Victims spread evenly across the flood window with a small
			// per-process jitter so their frames interleave with the
			// flood rather than clustering at one instant.
			at := w.Start + 1 + span*sim.Time(k)/sim.Time(maxInt(w.VictimMsgs, 1)) +
				sim.Time(rng.Int63n(int64(spacing)+1))
			body := fmt.Appendf(nil, "v%d-%d", p, k)
			out = append(out, sim.ScheduledBroadcast{
				At:   at,
				Proc: p,
				Body: fill(body, w.VictimSize, uint64(p)<<32|uint64(k)),
			})
		}
	}
	return out
}

// String implements Broadcasts.
func (w Flood) String() string {
	return fmt.Sprintf("flood(p%d x%d@%d,%dB)", w.Flooder, w.Count, w.Spacing, w.Payload)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
