// Package nemesis is the deterministic fault-campaign scheduler
// (DESIGN.md §15). A Campaign is a seed-stable script of staged,
// overlapping faults — partitions that split, heal and re-split
// (including asymmetric one-way cuts), crash-recover storms composed
// with joins and leaves mid-partition, store faults (torn WAL tail,
// corrupted snapshot), and wire-level mutation (duplication, forced
// reordering, bit flips gated so they surface only as loss) — applied
// to either the virtual-time simulator (RunSim) or a live in-process
// cluster (RunLive).
//
// Every campaign ends the same way: after the last scheduled fault
// lifts (the heal time), the convergence auditor requires every
// surviving or recovered process to reach uniform agreement on the
// obliged message set within HealDeadline, with zero re-deliveries.
// A stalled message is reported with the campaign stage that was
// active when it was born and the obs explainer's account of the
// missing evidence — the failure report names what broke it and what
// it still lacks.
package nemesis

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// StageKind enumerates the fault vocabulary.
type StageKind int

const (
	// StageSplit drops every frame crossing between side A and the rest
	// for the stage window — the symmetric partition.
	StageSplit StageKind = iota
	// StageOneWay drops frames from Src procs to Dst procs for the
	// window, leaving the reverse direction intact — the asymmetric cut.
	StageOneWay
	// StageCrash crashes Procs at From; RecoverAfter > 0 restarts each
	// from its store RecoverAfter units later.
	StageCrash
	// StageJoin makes Procs late joiners soliciting snapshots at From.
	StageJoin
	// StageLeave removes Procs at From, with no farewell on the wire.
	StageLeave
	// StageLoss drops every frame with probability P for the window, on
	// top of the base link model.
	StageLoss
	// StageDup duplicates surviving frames with probability P for the
	// window (channel.Duplicate).
	StageDup
	// StageReorder adds up to Window extra delay units with probability
	// P for the stage window (channel.Reorder).
	StageReorder
	// StageFlip flips one bit per affected frame with probability P,
	// gated by FlipGate so a flip only ever surfaces as loss or
	// truncation, never as accepted garbage (channel.BitFlip).
	StageFlip
	// StageTornWAL tears the tail record off Procs' write-ahead logs;
	// the tear manifests at each proc's next recovery Load. Requires a
	// matching crash+recover stage.
	StageTornWAL
	// StageSnapCorrupt corrupts Procs' stored snapshots so the next
	// recovery attempt must reject them. Live clusters only: the
	// simulator treats store corruption as a harness bug and panics.
	StageSnapCorrupt
)

// kindNames are the stage kinds' spec-language names, by StageKind.
var kindNames = [...]string{"split", "oneway", "crash", "join", "leave",
	"loss", "dup", "reorder", "flip", "tornwal", "snapcorrupt"}

// String implements fmt.Stringer.
func (k StageKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("StageKind(%d)", int(k))
}

// Stage is one scheduled fault. Which fields matter depends on Kind;
// Validate checks the combination.
type Stage struct {
	// Name labels the stage in failure reports; defaults to
	// "<kind>@<from>".
	Name string
	Kind StageKind
	// From is when the fault starts (virtual units in the simulator,
	// mesh elapsed units live). Until ends windowed faults (exclusive);
	// instantaneous kinds ignore it.
	From, Until int64
	// A is the split's side-A membership (procs not listed form side B;
	// late joiners not listed land on side B).
	A []int
	// Src and Dst are the one-way cut's directed endpoints.
	Src, Dst []int
	// Procs are the targets of crash/join/leave/store-fault stages.
	Procs []int
	// RecoverAfter, for StageCrash, restarts each crashed proc this
	// many units after From; 0 means the crash is permanent.
	RecoverAfter int64
	// P is the per-frame probability for loss/dup/reorder/flip.
	P float64
	// Window is the reorder delay bound (and doubles as the duplicate
	// fan-out bound for StageDup when > 1).
	Window int64
}

// label returns the stage's report name.
func (s Stage) label() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s@%d", s.Kind, s.From)
}

// windowed reports whether the stage occupies a [From, Until) window.
func (s Stage) windowed() bool {
	switch s.Kind {
	case StageSplit, StageOneWay, StageLoss, StageDup, StageReorder, StageFlip:
		return true
	default:
		return false
	}
}

// end is the time the stage's fault has fully lifted.
func (s Stage) end() int64 {
	if s.windowed() {
		return s.Until
	}
	if s.Kind == StageCrash && s.RecoverAfter > 0 {
		return s.From + s.RecoverAfter
	}
	return s.From
}

// active reports whether the stage's fault is in force at t (used for
// blame attribution; instantaneous stages cover a single unit).
func (s Stage) active(t int64) bool {
	end := s.end()
	if end <= s.From {
		end = s.From + 1
	}
	return t >= s.From && t < end
}

// Campaign is a named script of stages plus the post-heal contract.
type Campaign struct {
	Name   string
	Stages []Stage
	// HealDeadline is how long after the heal time the auditor allows
	// for convergence. 0 demands convergence at the heal instant — the
	// deliberately broken configuration used to demonstrate the
	// failure report.
	HealDeadline int64
}

// HealTime is when the last scheduled fault has lifted: the start of
// the heal phase the auditor measures from.
func (c Campaign) HealTime() int64 {
	var heal int64
	for _, s := range c.Stages {
		if e := s.end(); e > heal {
			heal = e
		}
	}
	return heal
}

// Blame names the stages whose fault was in force at time t, joined
// with "+", or "heal" when t falls outside every stage — the auditor
// attaches it to each stalled message's birth time.
func (c Campaign) Blame(t int64) string {
	var names []string
	for _, s := range c.Stages {
		if s.active(t) {
			names = append(names, s.label())
		}
	}
	if len(names) == 0 {
		return "heal"
	}
	slices.Sort(names)
	return strings.Join(names, "+")
}

// Validate checks the campaign for a base cluster of n founders. It
// rejects every campaign the merged schedule could not hold as written
// — the one schedule RunSim and RunLive both play — so neither driver
// silently changes a campaign. live selects the live-cluster rules
// (snapshot corruption is live-only; the simulator panics on store
// errors by design). Beyond each stage's own shape, the schedule rules
// are:
//
//   - a stage names only founders (< n) and joiners;
//   - joiners are the fresh slots n, n+1, … in join-time order, joining
//     after time 0 (the live cluster can only append a process);
//   - a process is in at most one crash stage and one leave stage;
//   - a joiner crashes and leaves after its join, and a recovering
//     process leaves after its recovery;
//   - a joiner's crash is permanent: Restore's draw plausibility bound
//     can refuse the baseline a joiner adopted (its tag stream sits at
//     the donor's position with the donor's pins dropped), so a joiner
//     cannot yet recover from its store;
//   - a store fault's target recovers, at or after the fault's From:
//     that recovery's Load is the one the fault strikes.
func (c Campaign) Validate(n int, live bool) error {
	if c.Name == "" {
		return fmt.Errorf("nemesis: campaign needs a name")
	}
	if c.HealDeadline < 0 {
		return fmt.Errorf("nemesis: campaign %q: negative heal deadline", c.Name)
	}
	if len(c.Stages) == 0 {
		return fmt.Errorf("nemesis: campaign %q has no stages", c.Name)
	}
	where := func(i int) string {
		return fmt.Sprintf("nemesis: campaign %q stage %d (%s)", c.Name, i, c.Stages[i].label())
	}

	// Each process's crash and leave stage, and the joins in slot order.
	type join struct {
		stage, proc int
		at          int64
	}
	var joins []join
	once := map[StageKind]map[int]int{StageCrash: {}, StageLeave: {}}
	for i, s := range c.Stages {
		for _, p := range s.Procs {
			if s.Kind == StageJoin {
				joins = append(joins, join{i, p, s.From})
			} else if seen := once[s.Kind]; seen != nil {
				if j, dup := seen[p]; dup {
					return fmt.Errorf("%s: proc %d is already in stage %d (%s): a process is in at most one %s stage",
						where(i), p, j, c.Stages[j].label(), s.Kind)
				}
				seen[p] = i
			}
		}
	}
	slices.SortFunc(joins, func(a, b join) int { return cmp.Or(cmp.Compare(a.at, b.at), a.proc-b.proc) })
	joinAt := map[int]int64{}
	for k, j := range joins {
		if j.at <= 0 {
			return fmt.Errorf("%s: proc %d joins at %d: a join starts after 0, where a process is a founder", where(j.stage), j.proc, j.at)
		}
		if j.proc != n+k {
			return fmt.Errorf("%s: join target %d is not the fresh slot %d: joiners take slots %d, %d, … in join-time order",
				where(j.stage), j.proc, n+k, n, n+1)
		}
		joinAt[j.proc] = j.at
	}
	recoverAt := func(p int) (int64, bool) {
		i, ok := once[StageCrash][p]
		if !ok || c.Stages[i].RecoverAfter <= 0 {
			return 0, false
		}
		return c.Stages[i].From + c.Stages[i].RecoverAfter, true
	}

	for i, s := range c.Stages {
		for _, set := range [][]int{s.A, s.Src, s.Dst, s.Procs} {
			for _, p := range set {
				if _, joiner := joinAt[p]; p < 0 || p >= n && !joiner {
					return fmt.Errorf("%s: proc %d is neither a founder (< %d) nor declared by a join stage", where(i), p, n)
				}
			}
		}
		if s.From < 0 {
			return fmt.Errorf("%s: negative From", where(i))
		}
		if s.windowed() && s.Until <= s.From {
			return fmt.Errorf("%s: window [%d,%d) is empty", where(i), s.From, s.Until)
		}
		switch s.Kind {
		case StageSplit:
			if len(s.A) == 0 || len(s.A) >= n {
				return fmt.Errorf("%s: side A must be a nonempty proper subset of the %d founders", where(i), n)
			}
		case StageOneWay:
			if len(s.Src) == 0 || len(s.Dst) == 0 {
				return fmt.Errorf("%s: one-way cut needs Src and Dst procs", where(i))
			}
		case StageLoss, StageDup, StageReorder, StageFlip:
			if s.P < 0 || s.P > 1 {
				return fmt.Errorf("%s: probability %g outside [0,1]", where(i), s.P)
			}
			if s.Kind == StageReorder && s.Window <= 0 {
				return fmt.Errorf("%s: reorder needs a positive Window", where(i))
			}
		case StageCrash, StageJoin, StageLeave:
			if len(s.Procs) == 0 {
				return fmt.Errorf("%s: needs target Procs", where(i))
			}
			if s.RecoverAfter < 0 || s.From+s.RecoverAfter < s.From {
				return fmt.Errorf("%s: RecoverAfter %d is negative or overflows", where(i), s.RecoverAfter)
			}
			for _, p := range s.Procs {
				at, joiner := joinAt[p]
				if joiner && s.Kind != StageJoin && s.From <= at {
					return fmt.Errorf("%s: proc %d's %s at %d is not after its join at %d", where(i), p, s.Kind, s.From, at)
				}
				if joiner && s.Kind == StageCrash && s.RecoverAfter > 0 {
					return fmt.Errorf("%s: joiner %d must crash for good: an adopted baseline can fail recovery's draw plausibility bound", where(i), p)
				}
				if at, ok := recoverAt(p); ok && s.Kind == StageLeave && s.From <= at {
					return fmt.Errorf("%s: proc %d leaves at %d, not after its recovery at %d", where(i), p, s.From, at)
				}
			}
		case StageTornWAL, StageSnapCorrupt:
			if s.Kind == StageSnapCorrupt && !live {
				return fmt.Errorf("%s: snapshot corruption is live-only (the simulator treats store errors as harness bugs)", where(i))
			}
			if len(s.Procs) == 0 {
				return fmt.Errorf("%s: needs target Procs", where(i))
			}
			for _, p := range s.Procs {
				at, ok := recoverAt(p)
				if !ok {
					return fmt.Errorf("%s: proc %d has no crash+recover stage for the store fault to manifest at", where(i), p)
				}
				if s.From > at {
					return fmt.Errorf("%s: store fault at %d falls after proc %d's recovery at %d, the one Load it can strike",
						where(i), s.From, p, at)
				}
			}
		default:
			return fmt.Errorf("%s: unknown kind %v", where(i), s.Kind)
		}
	}
	return nil
}
