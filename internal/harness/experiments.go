package harness

import (
	"fmt"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/sim"
	"anonurb/internal/workload"
	"anonurb/internal/xrand"
)

// Params scales the experiment suite. Quick runs the reduced sweeps used
// by tests and benchmarks; the full sweeps are what cmd/urbbench (the
// only program that runs the suite) prints and EXPERIMENTS.md records.
type Params struct {
	Seed  uint64
	Quick bool
}

// pick returns quick or full depending on the params.
func pick[T any](p Params, quick, full T) T {
	if p.Quick {
		return quick
	}
	return full
}

func lossLink(p float64) channel.LinkModel {
	return channel.Bernoulli{P: p, D: channel.UniformDelay{Min: 1, Max: 5}}
}

func okString(b bool) string {
	if b {
		return "ok"
	}
	return "VIOLATED"
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// T1Correctness is experiment T1: Algorithm 1 satisfies all three URB
// properties across system sizes and loss rates with the maximum legal
// number of crashes (t = ⌈n/2⌉-1), exercising Theorem 1.
func T1Correctness(p Params) *Table {
	ns := pick(p, []int{3, 5}, []int{3, 5, 9, 15})
	losses := pick(p, []float64{0, 0.3}, []float64{0, 0.1, 0.3, 0.5})
	writers := pick(p, 2, 3)
	perWriter := pick(p, 2, 4)

	t := &Table{
		Title: "T1: Algorithm 1 correctness matrix (Theorem 1)",
		Note: fmt.Sprintf("workload: %d writers x %d msgs; crashes: t = max minority, at t in [40,120]",
			writers, perWriter),
		Columns: []string{"n", "t", "loss", "delivered", "validity", "agreement", "integrity",
			"lat mean", "lat p99", "msgs/bcast"},
	}
	for _, n := range ns {
		for _, loss := range losses {
			tol := workload.MaxMinority(n)
			out := Run(Scenario{
				Name:     fmt.Sprintf("t1-n%d-l%g", n, loss),
				N:        n,
				Algo:     AlgoMajority,
				Link:     lossLink(loss),
				Workload: workload.MultiWriter{Writers: writers, PerWriter: perWriter, Start: 5, Interval: 30},
				Crashes:  workload.CrashCount{Count: tol, From: 40, To: 120},
				Seed:     p.Seed + uint64(n)*1000 + uint64(loss*100),
				MaxTime:  1_000_000,
			})
			out.MustConverge()
			valid, agree, integ := propertySplit(out)
			t.AddRow(n, tol, loss, yesNo(out.DeliveredAll), okString(valid), okString(agree),
				okString(integ), out.Latency.Mean(), out.Latency.Quantile(0.99),
				out.MsgsPerBroadcast())
		}
	}
	return t
}

// propertySplit reports (validity, agreement, integrity) from a report.
func propertySplit(out Outcome) (bool, bool, bool) {
	valid, agree, integ := true, true, true
	for _, v := range out.Report.Violations {
		switch v.Property {
		case "validity":
			valid = false
		case "uniform-agreement":
			agree = false
		case "uniform-integrity":
			integ = false
		}
	}
	return valid, agree, integ
}

// impossibilityLink wires the Theorem 2 network: reliable inside each
// group, a black hole across groups. Legal as a fair-lossy behaviour
// because the only cross-group traffic ever generated comes from
// processes that crash after finitely many sends.
func impossibilityLink(sizeS1 int) channel.LinkModel {
	inS1 := func(p int) bool { return p < sizeS1 }
	return splitLink{inA: inS1, cross: channel.Blackhole{},
		within: channel.Reliable{D: channel.FixedDelay(2)}}
}

// splitLink routes cross-group and within-group copies to different
// models.
type splitLink struct {
	inA    func(int) bool
	cross  channel.LinkModel
	within channel.LinkModel
}

func (s splitLink) Judge(now int64, src, dst int, attempt uint64, rng *xrand.Source) channel.Verdict {
	if s.inA(src) != s.inA(dst) {
		return s.cross.Judge(now, src, dst, attempt, rng)
	}
	return s.within.Judge(now, src, dst, attempt, rng)
}

func (s splitLink) String() string {
	return fmt.Sprintf("split(cross=%s,within=%s)", s.cross, s.within)
}

// T2Impossibility reenacts the Theorem 2 construction: with t >= n/2
// permitted, an algorithm that delivers on sub-majority evidence (the
// hypothetical algorithm A, modeled by Algorithm 1 with threshold ⌈n/2⌉)
// violates uniform agreement in run R2; the real Algorithm 1 stays safe
// but blocks forever — delivering is impossible, exactly as the theorem
// states.
func T2Impossibility(p Params) *Table {
	ns := pick(p, []int{2, 4}, []int{2, 4, 6})
	t := &Table{
		Title: "T2: Theorem 2 impossibility construction (runs R1/R2)",
		Note: "S1 = first ⌈n/2⌉ processes (crash after delivering), S2 = rest; " +
			"all S1→S2 copies lost (finitely many: legal for fair lossy channels)",
		Columns: []string{"n", "|S1|", "variant", "S1 delivered", "S2 delivered",
			"agreement", "outcome"},
	}
	for _, n := range ns {
		s1 := (n + 1) / 2
		for _, algo := range []Algo{AlgoMajorityLowered, AlgoMajority} {
			crashAfter := make([]int, n)
			for i := 0; i < s1; i++ {
				crashAfter[i] = 1
			}
			out := Run(Scenario{
				Name:                 fmt.Sprintf("t2-n%d-%v", n, algo),
				N:                    n,
				Algo:                 algo,
				Link:                 impossibilityLink(s1),
				Workload:             workload.SingleShot{At: 2, Proc: 0, Body: []byte("m")},
				CrashAfterDeliveries: crashAfter,
				Seed:                 p.Seed + uint64(n),
				MaxTime:              2_000,
			})
			s1Deliv, s2Deliv := 0, 0
			for proc, ds := range out.Result.Deliveries {
				if proc < s1 {
					s1Deliv += len(ds)
				} else {
					s2Deliv += len(ds)
				}
			}
			_, agree, _ := propertySplit(out)
			var outcome string
			switch {
			case algo == AlgoMajorityLowered && !agree:
				outcome = "violation (as Theorem 2 predicts)"
			case algo == AlgoMajority && s1Deliv == 0 && s2Deliv == 0:
				outcome = "blocked forever (safe, no liveness)"
			default:
				outcome = "UNEXPECTED"
			}
			t.AddRow(n, s1, algo.String(), s1Deliv, s2Deliv, okString(agree), outcome)
		}
	}
	return t
}

// T3CrashTolerance is experiment T3: Algorithm 1's guarantee stops at
// t < n/2 while Algorithm 2 (with AΘ/AP*) delivers and quiesces for any
// number of crashes (up to n-1 — at least one correct process is assumed
// by the model).
func T3CrashTolerance(p Params) *Table {
	n := 6
	ts := pick(p, []int{0, 2, 3, 5}, []int{0, 1, 2, 3, 4, 5})
	t := &Table{
		Title: "T3: crash tolerance sweep (n=6, crashes at t=0, loss 0.2)",
		Note: "alg1 can only deliver while live acks can exceed n/2 (t <= 2); " +
			"alg2 delivers and quiesces for every t",
		Columns: []string{"t", "alg1 delivers", "alg1 safe", "alg2 delivers", "alg2 safe",
			"alg2 quiescent", "alg2 quiesce time"},
	}
	for _, tol := range ts {
		crash := workload.CrashCount{Count: tol, From: 0, To: 0}
		wl := workload.SingleShot{At: 5, Proc: 0, Body: []byte("m")}

		a1 := Run(Scenario{
			Name: fmt.Sprintf("t3-alg1-t%d", tol), N: n, Algo: AlgoMajority,
			Link: lossLink(0.2), Workload: wl, Crashes: crash,
			Seed: p.Seed + uint64(tol), MaxTime: pick(p, sim.Time(4_000), sim.Time(8_000)),
		})
		a1Delivers := a1.DeliveredAll
		_, a1Agree, a1Integ := propertySplit(a1)

		a2 := Run(Scenario{
			Name: fmt.Sprintf("t3-alg2-t%d", tol), N: n, Algo: AlgoQuiescent,
			Link: lossLink(0.2), Workload: wl, Crashes: crash,
			FD:   fd.OracleConfig{Noise: fd.NoiseExact},
			Seed: p.Seed + uint64(tol), MaxTime: 1_000_000, StopWhenQuiet: 300,
		})
		_, a2Agree, a2Integ := propertySplit(a2)
		t.AddRow(tol, yesNo(a1Delivers), okString(a1Agree && a1Integ),
			yesNo(a2.DeliveredAll), okString(a2Agree && a2Integ),
			yesNo(a2.QuiesceTime >= 0), a2.QuiesceTime)
	}
	return t
}

// T4FDAblation is experiment T4: the failure detector audience invariant.
// With RevealToFaulty = 0 (labels of correct processes shown only to
// correct processes) Algorithm 2 is safe and quiescent. Revealing correct
// labels to a faulty process — which the AΘ/AP* axioms PERMIT — lets a
// frozen ACK from the crashed process stand in for a slow correct
// process in the retirement guard: retransmission stops early and the
// slow process never receives the message, violating uniform agreement.
// This is a genuine gap between the paper's failure detector definitions
// and what its Algorithm 2 needs; see DESIGN.md §2.
func T4FDAblation(p Params) *Table {
	const n = 4
	t := &Table{
		Title: "T4: failure detector audience ablation (n=4, p3 crashes at 150, p2 slow)",
		Note: "p2 is correct but its inbound links drop the first 2000 copies (fair); " +
			"reveal>0 lets the dead p3's frozen ACK complete the retirement guard early",
		Columns: []string{"reveal-to-faulty", "noise", "delivered-all", "agreement",
			"quiescent", "interpretation"},
	}
	cases := []struct {
		reveal int
		noise  fd.NoiseMode
		gst    sim.Time
	}{
		{0, fd.NoiseExact, 0},
		{0, fd.NoiseBenign, 300},
		{0, fd.NoiseAdversarial, 300},
		{1, fd.NoiseExact, 0},
	}
	for _, c := range cases {
		out := Run(Scenario{
			Name: fmt.Sprintf("t4-reveal%d-%v", c.reveal, c.noise),
			N:    n,
			Algo: AlgoQuiescent,
			Link: channel.SlowSink{Dst: 2, K: 2000,
				Then: channel.Bernoulli{P: 0.05, D: channel.UniformDelay{Min: 1, Max: 4}}},
			Workload: workload.SingleShot{At: 5, Proc: 0, Body: []byte("m")},
			Crashes:  workload.CrashCount{Count: 1, From: 150, To: 150},
			FD: fd.OracleConfig{
				Noise: c.noise, GST: int64(c.gst), NoisePeriod: 20, RevealToFaulty: c.reveal,
			},
			Seed:          p.Seed + uint64(c.reveal)*17 + uint64(c.noise),
			MaxTime:       300_000,
			StopWhenQuiet: 500,
		})
		_, agree, _ := propertySplit(out)
		interp := "safe and quiescent"
		if !agree {
			interp = "premature retirement starved the slow process"
		} else if !out.DeliveredAll {
			interp = "did not converge"
		}
		t.AddRow(c.reveal, c.noise.String(), yesNo(out.DeliveredAll), okString(agree),
			yesNo(out.QuiesceTime >= 0), interp)
	}
	return t
}
