package harness

import (
	"fmt"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/sim"
	"anonurb/internal/urb"
	"anonurb/internal/workload"
)

// F1QuiescenceCurve is figure F1: cumulative wire traffic over virtual
// time for Algorithm 1 vs Algorithm 2 on the same workload. Algorithm 1's
// curve grows linearly forever (Task 1 never stops); Algorithm 2's curve
// flattens once every message is retired — Theorem 3's quiescence made
// visible.
func F1QuiescenceCurve(p Params) *Table {
	const n = 5
	horizon := pick(p, sim.Time(2_000), sim.Time(6_000))
	sampleEvery := horizon / 20
	wl := workload.MultiWriter{Writers: 2, PerWriter: 2, Start: 5, Interval: 40}
	crash := workload.CrashCount{Count: 1, From: 100, To: 100}

	run := func(algo Algo) Outcome {
		return Run(Scenario{
			Name: fmt.Sprintf("f1-%v", algo), N: n, Algo: algo,
			Link: lossLink(0.2), Workload: wl, Crashes: crash,
			FD:          fd.OracleConfig{Noise: fd.NoiseExact},
			Seed:        p.Seed,
			MaxTime:     horizon,
			SampleEvery: sampleEvery,
			FullHorizon: true,
		})
	}
	a1, a2 := run(AlgoMajority), run(AlgoQuiescent)

	t := &Table{
		Title: "F1: cumulative link copies vs virtual time (quiescence curve)",
		Note: fmt.Sprintf("n=%d, loss 0.2, 1 crash at t=100, %s; alg2 flattens, alg1 never does",
			n, wl),
		Columns: []string{"time", "alg1 cum copies", "alg2 cum copies"},
	}
	for i := range a1.Result.Samples {
		s1 := a1.Result.Samples[i]
		v2 := uint64(0)
		if i < len(a2.Result.Samples) {
			v2 = a2.Result.Samples[i].CumSent
		} else if len(a2.Result.Samples) > 0 {
			v2 = a2.Result.Samples[len(a2.Result.Samples)-1].CumSent
		}
		t.AddRow(s1.At, s1.CumSent, v2)
	}
	if len(a2.Result.Samples) > 1 {
		last := a2.Result.Samples[len(a2.Result.Samples)-1]
		prev := a2.Result.Samples[len(a2.Result.Samples)-2]
		if last.CumSent == prev.CumSent {
			t.Note += fmt.Sprintf("; alg2 last send at t=%d", a2.Result.LastSend)
		}
	}
	return t
}

// F2LatencyVsLoss is figure F2: delivery latency as a function of the
// per-copy loss probability, for both algorithms, plus the eager-send
// ablation. Latency grows with loss roughly like the expected number of
// retransmission rounds, 1/(1-p); fairness keeps delivery alive even at
// 70% loss.
func F2LatencyVsLoss(p Params) *Table {
	const n = 5
	losses := pick(p, []float64{0, 0.3, 0.6}, []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	reps := pick(p, 2, 5)
	wl := workload.MultiWriter{Writers: 2, PerWriter: 3, Start: 5, Interval: 50}

	t := &Table{
		Title: fmt.Sprintf("F2: delivery latency vs loss rate (n=5, no crashes, mean over %d seeds)", reps),
		Note: "latency in virtual time units (tick period = 10, delay 1-5); " +
			"eager = first MSG sent immediately instead of at the next tick",
		Columns: []string{"loss", "alg1 mean±std", "alg1 p99", "alg2 mean±std", "alg2 p99",
			"alg1-eager mean"},
	}
	for _, loss := range losses {
		run := func(algo Algo, cfg urb.Config) Aggregate {
			outs := Replicate(Scenario{
				Name: fmt.Sprintf("f2-%v-l%g", algo, loss), N: n, Algo: algo, URB: cfg,
				Link: lossLink(loss), Workload: wl,
				FD:   fd.OracleConfig{Noise: fd.NoiseExact},
				Seed: p.Seed + uint64(loss*1000), MaxTime: 2_000_000,
			}, reps)
			agg := Summarize(outs)
			if !agg.AllConverged || !agg.AllClean {
				panic(fmt.Sprintf("harness: F2 replica failed at loss %g algo %v", loss, algo))
			}
			return agg
		}
		a1 := run(AlgoMajority, urb.Config{})
		a2 := run(AlgoQuiescent, urb.Config{})
		eager := run(AlgoMajority, urb.Config{EagerFirstSend: true})
		t.AddRow(loss,
			fmt.Sprintf("%.1f±%.1f", a1.LatencyMean, a1.LatencyStd), a1.P99Mean,
			fmt.Sprintf("%.1f±%.1f", a2.LatencyMean, a2.LatencyStd), a2.P99Mean,
			eager.LatencyMean)
	}
	return t
}

// F3MessagesVsN is figure F3: message complexity as a function of system
// size. Both algorithms broadcast O(n) wire messages per reception (one
// ACK per MSG copy received), and every one of the n processes keeps
// re-sending MSG each tick until it may stop, so link copies grow faster
// than n²: on the paper configuration about 1.5 n³ per broadcast, which
// is why the alg2 copies/n^2 column rises with n. The difference is the
// horizon — Algorithm 2's total is bounded (it stops at quiescence),
// Algorithm 1's grows with the measurement window.
func F3MessagesVsN(p Params) *Table {
	ns := pick(p, []int{3, 7}, []int{3, 5, 7, 9, 13, 17, 21})
	t := &Table{
		Title: "F3: message complexity vs system size (loss 0.2, single broadcast)",
		Note: "alg1 measured until every process delivered (it would keep sending); " +
			"alg2 measured until quiescence (its total is final)",
		Columns: []string{"n", "alg1 copies@converge", "alg2 copies@quiescent",
			"alg2 copies/n^2", "alg2 quiesce time"},
	}
	for _, n := range ns {
		wl := workload.SingleShot{At: 5, Proc: 0, Body: []byte("m")}
		a1 := Run(Scenario{
			Name: fmt.Sprintf("f3-alg1-n%d", n), N: n, Algo: AlgoMajority,
			Link: lossLink(0.2), Workload: wl,
			Seed: p.Seed + uint64(n), MaxTime: 1_000_000,
		})
		a1.MustConverge()
		a2 := Run(Scenario{
			Name: fmt.Sprintf("f3-alg2-n%d", n), N: n, Algo: AlgoQuiescent,
			Link: lossLink(0.2), Workload: wl,
			FD:   fd.OracleConfig{Noise: fd.NoiseExact},
			Seed: p.Seed + uint64(n), MaxTime: 1_000_000, StopWhenQuiet: 300,
		})
		a2.MustConverge()
		perN2 := float64(a2.Result.Net.Sent) / float64(n*n)
		t.AddRow(n, a1.Result.Net.Sent, a2.Result.Net.Sent, perN2, a2.QuiesceTime)
	}
	return t
}

// F4QuiescenceVsGST is figure F4: the time to quiescence as a function of
// the failure detector stabilisation time. Retirement needs the exact
// post-GST views, so quiescence tracks GST with a roughly constant
// protocol overhead on top — the cost of trusting an eventually-perfect
// detector (Theorem 3's proof waits for AP* to stabilise).
func F4QuiescenceVsGST(p Params) *Table {
	const n = 5
	gsts := pick(p, []sim.Time{0, 200, 400}, []sim.Time{0, 100, 200, 400, 600, 800})
	t := &Table{
		Title:   "F4: quiescence time vs failure detector stabilisation (n=5, 1 crash, loss 0.2)",
		Note:    "benign pre-GST noise; quiesce time = virtual time of the last wire send",
		Columns: []string{"GST", "quiescent", "quiesce time", "delivery mean", "copies total"},
	}
	for _, gst := range gsts {
		out := Run(Scenario{
			Name: fmt.Sprintf("f4-gst%d", gst), N: n, Algo: AlgoQuiescent,
			Link:     lossLink(0.2),
			Workload: workload.SingleShot{At: 5, Proc: 0, Body: []byte("m")},
			Crashes:  workload.CrashCount{Count: 1, From: 50, To: 50},
			FD:       fd.OracleConfig{Noise: fd.NoiseBenign, GST: int64(gst), NoisePeriod: 25},
			Seed:     p.Seed + uint64(gst),
			MaxTime:  1_000_000, StopWhenQuiet: 400,
		})
		out.MustConverge()
		t.AddRow(gst, yesNo(out.QuiesceTime >= 0), out.QuiesceTime,
			out.Latency.Mean(), out.Result.Net.Sent)
	}
	return t
}

// F5MemoryFootprint is figure F5: the algorithms' internal set sizes over
// time. Algorithm 2 deletes retired messages from MSG (line 57), so its
// retransmission state returns to zero; Algorithm 1's MSG set is
// monotone — the memory cost of non-quiescence.
func F5MemoryFootprint(p Params) *Table {
	const n = 5
	horizon := pick(p, sim.Time(2_000), sim.Time(6_000))
	wl := workload.MultiWriter{Writers: 2, PerWriter: 3, Start: 5, Interval: 60}

	run := func(algo Algo) Outcome {
		return Run(Scenario{
			Name: fmt.Sprintf("f5-%v", algo), N: n, Algo: algo,
			Link: lossLink(0.15), Workload: wl,
			FD:          fd.OracleConfig{Noise: fd.NoiseExact},
			Seed:        p.Seed,
			MaxTime:     horizon,
			SampleEvery: horizon / 15,
			FullHorizon: true,
		})
	}
	a1, a2 := run(AlgoMajority), run(AlgoQuiescent)
	t := &Table{
		Title:   "F5: retransmission-set size over time (n=5, 6 broadcasts)",
		Note:    "values are the mean |MSG_i| over processes; alg2 returns to 0 after retirement",
		Columns: []string{"time", "alg1 avg |MSG|", "alg2 avg |MSG|", "alg2 retired total"},
	}
	avgMsg := func(s sim.Sample) float64 {
		total := 0
		for _, st := range s.Stats {
			total += st.MsgSet
		}
		return float64(total) / float64(len(s.Stats))
	}
	sumRetired := func(s sim.Sample) int {
		total := 0
		for _, st := range s.Stats {
			total += st.Retired
		}
		return total
	}
	for i := range a1.Result.Samples {
		s1 := a1.Result.Samples[i]
		var m2 float64
		var r2 int
		if i < len(a2.Result.Samples) {
			m2 = avgMsg(a2.Result.Samples[i])
			r2 = sumRetired(a2.Result.Samples[i])
		}
		t.AddRow(s1.At, avgMsg(s1), m2, r2)
	}
	return t
}

// F6FastDelivery is figure F6: how often the paper's "fast delivery"
// happens (URB-deliver assembled from ACKs before any MSG copy arrived)
// as a function of the retransmission period, plus the adversarial
// deliver-then-crash run showing uniform agreement survives it.
//
// The driver is the race between a process's own (lost or late) MSG copy
// and the ACKs triggered by everyone else's receptions: the longer the
// Task-1 period, the longer a dropped MSG copy takes to be replaced and
// the more likely the majority of ACKs wins the race.
func F6FastDelivery(p Params) *Table {
	const n = 5
	periods := pick(p, []sim.Time{10, 80}, []sim.Time{5, 10, 20, 40, 80})
	t := &Table{
		Title: "F6: fast deliveries vs retransmission period (alg1, n=5, loss 0.3)",
		Note: "fast = delivered on ACK evidence before receiving the MSG itself; " +
			"slower retransmission ⇒ lost MSG copies take longer to replace ⇒ ACKs win the race more often",
		Columns: []string{"tick period", "fast frac", "deliveries", "agreement"},
	}
	for _, period := range periods {
		out := Run(Scenario{
			Name: fmt.Sprintf("f6-period%d", period), N: n, Algo: AlgoMajority,
			Link:      channel.Bernoulli{P: 0.3, D: channel.UniformDelay{Min: 1, Max: 6}},
			Workload:  workload.MultiWriter{Writers: 3, PerWriter: 3, Start: 5, Interval: 5 * period},
			TickEvery: period,
			Seed:      p.Seed + uint64(period),
			MaxTime:   1_000_000,
		})
		out.MustConverge()
		_, agree, _ := propertySplit(out)
		t.AddRow(period, out.FastFraction, out.Report.TotalDeliveries, okString(agree))
	}

	// Adversary: the fast deliverer crashes immediately after delivering.
	crashAfter := make([]int, n)
	crashAfter[1] = 1
	out := Run(Scenario{
		Name: "f6-adversary", N: n, Algo: AlgoQuiescent,
		Link: channel.Bernoulli{P: 0.1, D: channel.UniformDelay{Min: 1, Max: 40}},
		FD: fd.OracleConfig{
			Noise: fd.NoiseExact, RevealToFaulty: 1,
		},
		Workload:             workload.SingleShot{At: 5, Proc: 1, Body: []byte("m")},
		CrashAfterDeliveries: crashAfter,
		Seed:                 p.Seed + 99,
		MaxTime:              1_000_000,
		StopWhenQuiet:        300,
	})
	_, agree, _ := propertySplit(out)
	t.AddRow("crash-after-deliver", out.FastFraction, out.Report.TotalDeliveries, okString(agree))
	return t
}

// Experiment pairs an id with its generator.
type Experiment struct {
	ID  string
	Gen func(Params) *Table
}

// AllExperiments returns the full evaluation suite in presentation order.
func AllExperiments() []Experiment {
	return []Experiment{
		{"T1", T1Correctness},
		{"T2", T2Impossibility},
		{"T3", T3CrashTolerance},
		{"T4", T4FDAblation},
		{"T5", T5BaselineGuarantees},
		{"T6", T6PriceOfUniformity},
		{"F1", F1QuiescenceCurve},
		{"F2", F2LatencyVsLoss},
		{"F3", F3MessagesVsN},
		{"F4", F4QuiescenceVsGST},
		{"F5", F5MemoryFootprint},
		{"F6", F6FastDelivery},
		{"F7", F7AnonymityCost},
		{"F8", F8HeartbeatVsOracle},
	}
}
