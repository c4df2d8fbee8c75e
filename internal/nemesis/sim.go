package nemesis

import (
	"fmt"

	"anonurb/internal/obs"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/wire"
)

// SimResult bundles the raw simulator outcome with the convergence
// auditor's verdict.
type SimResult struct {
	Result sim.Result
	Audit  Audit
}

// merge turns a base configuration and a campaign into the one schedule
// both drivers play. The base supplies the cluster (N, Factory, Seed,
// TickEvery, base Link, Stores) and the workload (Broadcasts); the
// campaign supplies every fault. merge validates the campaign, grows N
// by the joiner slots, writes the crash/recover/join/leave stages into
// CrashAt/RecoverAt/JoinAt/LeaveAt over the base's entries, plants a
// store.Mem for every recovering process that has no store (joiners
// included) and arms the store faults on it, wraps the link in the
// staged overlays, and pins the horizon to heal + deadline with every
// early stop suppressed until heal: a run must not declare victory
// while faults are still ahead of it. A store fault armed here strikes
// its target's one recovery, the first Load the store serves. live
// selects Validate's live rules.
func merge(base sim.Config, c Campaign, live bool) (sim.Config, error) {
	if err := c.Validate(base.N, live); err != nil {
		return sim.Config{}, err
	}
	cfg := base
	n := base.N
	for _, s := range c.Stages {
		if s.Kind == StageJoin {
			n += len(s.Procs)
		}
	}
	cfg.N = n
	cfg.CrashAt = grow(base.CrashAt, n, sim.Never)
	cfg.RecoverAt = grow(base.RecoverAt, n, sim.Never)
	cfg.JoinAt = grow(base.JoinAt, n, 0)
	cfg.LeaveAt = grow(base.LeaveAt, n, 0)
	cfg.Stores = grow(base.Stores, n, nil)

	for _, s := range c.Stages {
		for _, p := range s.Procs {
			switch s.Kind {
			case StageCrash:
				cfg.CrashAt[p], cfg.RecoverAt[p] = s.From, sim.Never
				if s.RecoverAfter > 0 {
					cfg.RecoverAt[p] = s.From + s.RecoverAfter
					if cfg.Stores[p] == nil {
						cfg.Stores[p] = store.NewMem()
					}
				}
			case StageJoin:
				cfg.JoinAt[p] = s.From
			case StageLeave:
				cfg.LeaveAt[p] = s.From
			}
		}
	}
	for _, s := range c.Stages {
		if s.Kind != StageTornWAL && s.Kind != StageSnapCorrupt {
			continue
		}
		for _, p := range s.Procs {
			mem, ok := cfg.Stores[p].(*store.Mem)
			if !ok {
				return sim.Config{}, fmt.Errorf("nemesis: campaign %q: %s proc %d needs a *store.Mem store", c.Name, s.Kind, p)
			}
			if s.Kind == StageTornWAL {
				// The record in flight at the crash is the one that goes
				// missing.
				mem.TearTail()
			} else {
				mem.SetSnapshotMutator(snapGarbler{})
			}
		}
	}

	heal := c.HealTime()
	cfg.Link = c.BuildLink(base.Link)
	cfg.NoEarlyStopBefore = heal
	cfg.StopWhenQuiet = 0
	cfg.ExpectDeliveries = len(cfg.Broadcasts)
	cfg.MaxTime = heal + c.HealDeadline
	for _, b := range cfg.Broadcasts {
		if b.Proc < 0 || b.Proc >= n {
			return sim.Config{}, fmt.Errorf("nemesis: campaign %q: workload broadcasts on proc %d, outside its %d processes",
				c.Name, b.Proc, n)
		}
		// RunLive plays broadcasts before faults at equal times: a
		// broadcast at its process's join instant would find no process.
		if at := cfg.JoinAt[b.Proc]; at > 0 && b.At <= at {
			return sim.Config{}, fmt.Errorf("nemesis: campaign %q: workload broadcasts on proc %d at %d, not after its join at %d",
				c.Name, b.Proc, b.At, at)
		}
		if b.At > cfg.MaxTime {
			return sim.Config{}, fmt.Errorf("nemesis: campaign %q: workload broadcasts until %d, beyond the campaign horizon %d",
				c.Name, b.At, cfg.MaxTime)
		}
	}
	return cfg, nil
}

// snapGarbler is the snapcorrupt stage's store.SnapshotMutator: it
// XORs one mid-snapshot byte, which the recovery digest check must
// catch and refuse.
type snapGarbler struct{}

func (snapGarbler) MutateSnapshot(snap []byte) []byte {
	if len(snap) > 0 {
		snap[len(snap)/2] ^= 0xFF
	}
	return snap
}

// RunSim plays the merged schedule (merge) in the simulator and audits
// the outcome.
//
// The factory must build processes that tolerate the campaign: an
// algorithm consulting a ground-truth oracle (harness.AlgoQuiescent)
// would mis-see the merged crash schedule, so campaigns run on
// AlgoMajority or AlgoHeartbeat, which consult nothing but the wire.
// With heartbeat detection the trust timeout must exceed the longest
// partition window, or a side retires messages without the other
// side's acks and heals into permanent disagreement — that is a real
// finding about detector tuning, not a harness artifact (DESIGN.md
// §15).
func RunSim(base sim.Config, c Campaign) (*SimResult, error) {
	cfg, err := merge(base, c, false)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine(cfg)
	res := e.Run()
	return &SimResult{Result: res, Audit: audit(c, simLedger(cfg, e, res))}, nil
}

// grow copies base into n slots, filling the new ones with fill.
func grow[T any](base []T, n int, fill T) []T {
	out := append(make([]T, 0, n), base...)
	for len(out) < n {
		out = append(out, fill)
	}
	return out
}

// simLedger reads the auditor's ledger off a finished simulator run.
func simLedger(cfg sim.Config, e *sim.Engine, res sim.Result) ledger {
	l := ledger{procs: cfg.N, end: res.EndTime,
		issued: make(map[wire.MsgID]int64, len(res.Broadcasts)),
		origin: make(map[wire.MsgID]int, len(res.Broadcasts)),
		gone:   make(map[int]bool),
		counts: make(map[int]map[wire.MsgID]int, cfg.N),
		held:   func(p int, id wire.MsgID) bool { return res.Adopted[p][id] },
		explain: func(p int, id wire.MsgID) (obs.Explanation, bool) {
			if ex, ok := e.Process(p).(obs.Explainer); ok {
				return ex.Explain(id), true
			}
			return obs.Explanation{}, false
		},
	}
	for _, b := range res.Broadcasts {
		l.issued[b.ID] = b.At
		l.origin[b.ID] = b.Proc
	}
	for p, ds := range res.Deliveries {
		l.gone[p] = res.Crashed[p]
		if !res.Crashed[p] && cfg.JoinAt[p] > 0 && res.JoinedAt[p] == sim.Never {
			l.pending = append(l.pending, p)
		}
		l.counts[p] = make(map[wire.MsgID]int, len(ds))
		for _, d := range ds {
			l.counts[p][d.ID]++
		}
	}
	return l
}
