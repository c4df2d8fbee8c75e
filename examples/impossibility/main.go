// Impossibility: a walk-through of the paper's Theorem 2 — uniform
// reliable broadcast cannot be solved in an anonymous asynchronous system
// with fair lossy channels when half or more of the processes may crash
// (absent extra assumptions such as the failure detectors AΘ/AP*).
//
// The proof constructs two runs a sub-majority algorithm cannot tell
// apart. This program executes both runs on the deterministic simulator,
// once with the hypothetical algorithm (Algorithm 1 with its delivery
// threshold lowered to ⌈n/2⌉ acknowledgements) and once with the real
// Algorithm 1 — showing the dilemma: deliver and violate agreement, or
// stay safe and block forever.
//
// Run with:
//
//	go run ./examples/impossibility
package main

import (
	"fmt"

	"anonurb/internal/channel"
	"anonurb/internal/harness"
	"anonurb/internal/workload"
	"anonurb/internal/xrand"
)

// theoremLink builds the R2 network: reliable inside each half, a black
// hole across. Legal fair-lossy behaviour, because the only cross-half
// traffic ever offered comes from processes that crash after finitely
// many sends.
type theoremLink struct{ s1 int }

func (l theoremLink) Judge(now int64, src, dst int, attempt uint64, rng *xrand.Source) channel.Verdict {
	if (src < l.s1) != (dst < l.s1) {
		return channel.Verdict{Drop: true}
	}
	return channel.Verdict{Delay: 2}
}

func (l theoremLink) String() string { return fmt.Sprintf("theorem2(s1=%d)", l.s1) }

func run(n int, algo harness.Algo) harness.Outcome {
	s1 := (n + 1) / 2
	crashAfter := make([]int, n)
	for i := 0; i < s1; i++ {
		crashAfter[i] = 1 // every S1 member dies right after delivering
	}
	return harness.Run(harness.Scenario{
		Name:                 "impossibility",
		N:                    n,
		Algo:                 algo,
		Link:                 theoremLink{s1: s1},
		Workload:             workload.SingleShot{At: 2, Proc: 0, Body: []byte("m")},
		CrashAfterDeliveries: crashAfter,
		Seed:                 2015,
		MaxTime:              1_500,
	})
}

func main() {
	const n = 4
	s1 := (n + 1) / 2
	fmt.Printf("Theorem 2, executed. n=%d processes, split S1=p0..p%d, S2=p%d..p%d.\n",
		n, s1-1, s1, n-1)
	fmt.Println(`
Run R2: p0 URB-broadcasts m. Every copy crossing S1→S2 is lost — legal
for a fair lossy channel, because S1's members crash right after
delivering and so send only finitely many copies. S2 sends nothing (it
never hears anything). An algorithm that delivers on evidence from only
⌈n/2⌉ processes cannot distinguish this run from run R1, in which S2
crashed at time zero — so it delivers:`)

	bad := run(n, harness.AlgoMajorityLowered)
	printOutcome(bad, s1, true)
	agreementViolated := false
	for _, v := range bad.Report.Violations {
		if v.Property == "uniform-agreement" {
			agreementViolated = true
			fmt.Printf("  checker: %s\n", v.Error())
		}
	}
	if agreementViolated {
		fmt.Println("  → S1 delivered and died; correct S2 can never deliver. Uniform agreement is violated.")
	}

	fmt.Println(`
The real Algorithm 1 (strict majority, > n/2 acknowledgements) refuses
the bait — but then nobody ever delivers, in S1 or S2:`)
	good := run(n, harness.AlgoMajority)
	printOutcome(good, s1, false)
	if totalDeliveries(good) == 0 {
		fmt.Println("  → safe, but blocked forever. With t ≥ n/2 you cannot have both: that is Theorem 2.")
	}

	fmt.Println(`
The paper's way out is to enrich the model: the failure detectors AΘ and
AP* (Algorithm 2) restore liveness for ANY number of crashes — run
'go run ./examples/sensors' to see that side of the trade.`)
}

func totalDeliveries(o harness.Outcome) int {
	total := 0
	for _, ds := range o.Result.Deliveries {
		total += len(ds)
	}
	return total
}

// printOutcome summarises a run. convergent selects whether the eventual
// properties apply: the blocked run never converges by design, so only
// the safety properties are meaningful for it.
func printOutcome(o harness.Outcome, s1 int, convergent bool) {
	violations := 0
	for _, v := range o.Report.Violations {
		if convergent || v.Property != "validity" && v.Property != "uniform-agreement" {
			violations++
		}
	}
	for p, ds := range o.Result.Deliveries {
		group := "S2"
		if p < s1 {
			group = "S1"
		}
		state := "correct"
		if o.Result.Crashed[p] {
			state = "crashed"
		}
		fmt.Printf("  p%d (%s, %s): %d delivery(ies)\n", p, group, state, len(ds))
	}
	fmt.Printf("  properties: %d violation(s)\n", violations)
}
