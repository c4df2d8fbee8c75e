package nemesis

import (
	"fmt"
	"sort"
	"strings"

	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Stall is one obliged message a surviving process had not delivered
// (or adopted) when the campaign's deadline expired.
type Stall struct {
	Proc int
	ID   wire.MsgID
	// Born is when the message was URB-broadcast; Stage names the
	// campaign stage(s) in force at that moment ("heal" when none).
	Born  int64
	Stage string
	// Explanation is the process's own account of the missing evidence
	// (obs explainer); HasExplanation is false when the process exposes
	// no explainer.
	Explanation    obs.Explanation
	HasExplanation bool
}

// Audit is the convergence auditor's verdict on one campaign run: did
// every surviving or recovered process reach uniform agreement within
// the deadline after the last fault lifted, without re-delivering.
type Audit struct {
	Campaign string
	// HealTime is when the last scheduled fault lifted; Deadline is the
	// allowance after it; EndTime is when the run actually stopped.
	HealTime int64
	Deadline int64
	EndTime  int64
	// Agreement reports that every survivor delivered (or adopted)
	// every obliged message and every scheduled join completed.
	Agreement bool
	// HealLatency is EndTime − HealTime when agreement was reached, -1
	// otherwise. The run stops the moment convergence holds, so this is
	// the time the heal actually took.
	HealLatency int64
	// Redelivered counts duplicate deliveries of the same message id at
	// the same process across the whole run — the hard zero gate.
	Redelivered int
	// Survivors is the number of processes held to the agreement
	// obligation (founders that never crashed for good, recovered
	// processes, completed joiners).
	Survivors int
	// PendingJoins lists scheduled joiners whose snapshot transfer
	// never completed.
	PendingJoins []int
	// Stalls lists every missing (process, message) pair with blame and
	// explanation.
	Stalls []Stall
}

// ledger is what a runner records of one campaign run, in the shape the
// auditor needs; RunSim fills it from a finished sim.Result, RunLive
// from a live cluster at one instant.
type ledger struct {
	// procs is the number of process slots; end is when the run stopped,
	// in campaign units.
	procs int
	end   int64
	// issued maps every URB-broadcast message to its broadcast time and
	// origin to its broadcaster.
	issued map[wire.MsgID]int64
	origin map[wire.MsgID]int
	// gone marks processes that crashed for good or left.
	gone map[int]bool
	// pending lists scheduled joiners whose transfer never completed.
	pending []int
	// counts[p][id] is how many times process p delivered id.
	counts map[int]map[wire.MsgID]int
	// held reports that p holds id without a delivery event in counts:
	// history adopted at a join, or restored by a recovery.
	held func(p int, id wire.MsgID) bool
	// explain is p's own account of what id still lacks, false when p
	// exposes no explainer.
	explain func(p int, id wire.MsgID) (obs.Explanation, bool)
}

// audit checks uniform agreement, join completion and re-delivery over
// a ledger, attributing every stall to the stage in force when the
// message was born.
func audit(c Campaign, l ledger) Audit {
	heal := c.HealTime()
	a := Audit{Campaign: c.Name, HealTime: heal, Deadline: c.HealDeadline,
		EndTime: l.end, HealLatency: -1, PendingJoins: append([]int(nil), l.pending...)}
	sort.Ints(a.PendingJoins)
	pending := make(map[int]bool, len(l.pending))
	for _, p := range l.pending {
		pending[p] = true
	}

	// obliged is the agreement set: messages broadcast by processes still
	// standing, plus messages anybody delivered (uniformity). A departed
	// sender's message nobody delivered may legally vanish.
	obliged := make(map[wire.MsgID]bool)
	for id, p := range l.origin {
		if !l.gone[p] {
			obliged[id] = true
		}
	}
	for _, m := range l.counts {
		for id, n := range m {
			if n > 1 {
				a.Redelivered += n - 1
			}
			if _, ok := l.issued[id]; ok && n > 0 {
				obliged[id] = true
			}
		}
	}

	for p := 0; p < l.procs; p++ {
		if l.gone[p] || pending[p] {
			continue
		}
		a.Survivors++
		for id := range obliged {
			if l.counts[p][id] > 0 || l.held(p, id) {
				continue
			}
			st := Stall{Proc: p, ID: id, Born: l.issued[id], Stage: c.Blame(l.issued[id])}
			st.Explanation, st.HasExplanation = l.explain(p, id)
			a.Stalls = append(a.Stalls, st)
		}
	}
	sort.Slice(a.Stalls, func(i, j int) bool {
		if a.Stalls[i].Proc != a.Stalls[j].Proc {
			return a.Stalls[i].Proc < a.Stalls[j].Proc
		}
		return a.Stalls[i].Born < a.Stalls[j].Born
	})
	a.Agreement = len(a.Stalls) == 0 && len(a.PendingJoins) == 0
	if a.Agreement {
		a.HealLatency = l.end - heal
		if a.HealLatency < 0 {
			a.HealLatency = 0
		}
	}
	return a
}

// OK reports whether the campaign passed every hard gate: agreement
// after heal, zero re-deliveries, no stuck joins, heal latency within
// the deadline.
func (a Audit) OK() bool {
	return a.Agreement && a.Redelivered == 0 && len(a.PendingJoins) == 0 &&
		a.HealLatency >= 0 && a.HealLatency <= a.Deadline
}

// Report renders the verdict for humans. Failures name the campaign,
// the stage each stalled message was born under, and the evidence the
// stalled process still lacks.
func (a Audit) Report() string {
	if a.OK() {
		return fmt.Sprintf("nemesis: campaign %q converged %d units after heal (heal@%d, %d survivors, 0 redeliveries)",
			a.Campaign, a.HealLatency, a.HealTime, a.Survivors)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nemesis: campaign %q FAILED (heal@%d, deadline %d, end@%d):",
		a.Campaign, a.HealTime, a.Deadline, a.EndTime)
	if a.Agreement && a.HealLatency > a.Deadline {
		fmt.Fprintf(&b, "\n  - heal latency %d exceeds deadline %d", a.HealLatency, a.Deadline)
	}
	if a.Redelivered > 0 {
		fmt.Fprintf(&b, "\n  - %d re-deliveries (every receipt must be idempotent)", a.Redelivered)
	}
	for _, p := range a.PendingJoins {
		fmt.Fprintf(&b, "\n  - proc %d never completed its join", p)
	}
	for _, s := range a.Stalls {
		fmt.Fprintf(&b, "\n  - proc %d stalled on %s born@%d (stage %q)", s.Proc, s.ID, s.Born, s.Stage)
		if s.HasExplanation {
			fmt.Fprintf(&b, ": %s", s.Explanation)
		}
	}
	return b.String()
}
