package nemesis

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/liverun"
	"anonurb/internal/obs"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/wire"
)

// LiveRun describes one campaign execution against a live in-process
// cluster (liverun.Cluster): real goroutines, real time, the merged
// schedule driven wall-clock.
type LiveRun struct {
	// Config is the base cluster; merge reads its N, Link and Stores.
	// The mesh hands the merged link model its elapsed units on every
	// send, so the time-staged overlays activate on their own.
	Config liverun.Config
	// Campaign is the fault script, in mesh units.
	Campaign Campaign
	// Broadcasts is the workload, in mesh units.
	Broadcasts []sim.ScheduledBroadcast
}

// LiveResult is the audited outcome of a live campaign.
type LiveResult struct {
	Audit Audit
	// Link is the mesh's channel statistics (including mutated and
	// duplicated frame counts from the campaign overlays).
	Link channel.Stats
	// CorruptRejected lists procs whose first recovery attempt was
	// refused because of a snapcorrupt stage — the refusal is the
	// behaviour under test (a corrupt snapshot must fail loudly, never
	// load quietly). The runner then clears the corruption and retries,
	// modelling an operator restoring the snapshot from a replica.
	CorruptRejected []int
}

// RunLive plays the merged schedule (merge) against a live cluster and
// audits convergence after heal. Broadcasts go first at equal times, so
// a same-instant crash races the send through the mesh rather than
// trivially preceding it; the fault actions follow in the simulator's
// order: joins, leaves, crashes, recoveries. Cluster reconfiguration
// must be single-goroutine, so the schedule is driven serially; a Join
// blocks for its snapshot transfer, which can slip later events — the
// audit measures from the actual heal instant, and the
// donor-crash-during-transfer interleaving is exercised
// deterministically by the simulator campaigns instead (DESIGN.md §15).
func RunLive(lr LiveRun) (*LiveResult, error) {
	c := lr.Campaign
	lc := lr.Config
	if lc.Link == nil {
		return nil, fmt.Errorf("nemesis: live run needs a base link model")
	}
	if lc.Unit <= 0 {
		lc.Unit = time.Millisecond
	}
	cfg, err := merge(sim.Config{N: lc.N, Link: lc.Link, Stores: lc.Stores, Broadcasts: lr.Broadcasts}, c, true)
	if err != nil {
		return nil, err
	}
	lc.Link = cfg.Link
	// Founders' stores go to Start; each joiner's goes to its Join.
	lc.Stores = cfg.Stores[:lc.N]

	// Per-proc receipt counts, under one lock.
	var (
		mu     sync.Mutex
		counts = map[int]map[wire.MsgID]int{}
	)
	base := lc.OnDeliver
	lc.OnDeliver = func(d liverun.Delivery) {
		mu.Lock()
		if counts[d.Proc] == nil {
			counts[d.Proc] = map[wire.MsgID]int{}
		}
		counts[d.Proc][d.ID]++
		mu.Unlock()
		if base != nil {
			base(d)
		}
	}

	cl := liverun.Start(lc)
	defer cl.Stop()
	res := &LiveResult{}

	// Campaign bookkeeping the auditor needs.
	var (
		left     = map[int]bool{} // gone for good: left, or crashed with no recovery
		joinFail []int            // scheduled joins that did not complete
		issued   = map[wire.MsgID]int64{}
		origin   = map[wire.MsgID]int{}
		preCrash = map[int]map[wire.MsgID]int{} // receipt counts at crash instant
	)
	// up reports that p has a node the schedule may still act on: a
	// failed join leaves its slot, and every later action on it, unplayed.
	up := func(p int) bool { return p < cl.N() && !left[p] }

	// reconcileTorn applies the write-ahead reconciliation (the live
	// mirror of the simulator's doRecover retraction, DESIGN.md §15): a
	// pre-crash receipt whose WAL record tore is re-dated as preempted
	// mid-callback — it never happened — so the recovered node
	// re-delivering the message is one exposure, not two. A receipt the
	// restored state still holds is durable and keeps its count; the
	// node's idempotence guard means it can never fire OnDeliver again.
	reconcileTorn := func(p int) {
		for id, pre := range preCrash[p] {
			if pre == 0 {
				continue
			}
			ex, err := cl.Explain(p, id)
			if err != nil {
				continue
			}
			mu.Lock()
			now := counts[p][id]
			// Not in the restored state: the tail record tore. If the
			// node already re-delivered (now > pre), the extra receipt is
			// the one true exposure; either way one pre-crash count goes.
			if !ex.Delivered || now > pre {
				if counts[p][id]--; counts[p][id] == 0 {
					delete(counts[p], id)
				}
			}
			mu.Unlock()
		}
		delete(preCrash, p)
	}

	type action struct {
		at  int64
		run func()
	}
	var events []action
	for _, b := range cfg.Broadcasts {
		events = append(events, action{b.At, func() {
			if !up(b.Proc) {
				return
			}
			if id, err := cl.Node(b.Proc).Broadcast(b.Body); err == nil {
				issued[id] = b.At
				origin[id] = b.Proc
			}
		}})
	}
	for p, at := range cfg.JoinAt {
		if at > 0 {
			events = append(events, action{at, func() {
				if p != cl.N() {
					joinFail = append(joinFail, p)
				} else if _, err := cl.Join(cfg.Stores[p]); err != nil {
					joinFail = append(joinFail, p)
				}
			}})
		}
	}
	for p, at := range cfg.LeaveAt {
		if at > 0 {
			events = append(events, action{at, func() {
				if p < cl.N() {
					cl.Leave(p)
				}
				left[p] = true
			}})
		}
	}
	for p, at := range cfg.CrashAt {
		if at == sim.Never {
			continue
		}
		recovers := cfg.RecoverAt[p] != sim.Never
		events = append(events, action{at, func() {
			if !up(p) {
				return
			}
			cl.Crash(p)
			if !recovers {
				left[p] = true
				return
			}
			mu.Lock()
			preCrash[p] = maps.Clone(counts[p])
			mu.Unlock()
		}})
	}
	for p, at := range cfg.RecoverAt {
		if at == sim.Never {
			continue
		}
		events = append(events, action{at, func() {
			if !up(p) {
				return
			}
			err := cl.Recover(p)
			if err != nil && slices.ContainsFunc(c.Stages, func(s Stage) bool {
				return s.Kind == StageSnapCorrupt && slices.Contains(s.Procs, p)
			}) {
				// The corrupt snapshot was refused, as it must be:
				// restore it and try again.
				cfg.Stores[p].(*store.Mem).SetSnapshotMutator(nil)
				res.CorruptRejected = append(res.CorruptRejected, p)
				err = cl.Recover(p)
			}
			if err != nil {
				left[p] = true
				return
			}
			reconcileTorn(p)
		}})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	start := time.Now()
	for _, ev := range events {
		if d := time.Duration(ev.at)*lc.Unit - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		ev.run()
	}

	heal := c.HealTime()
	if d := time.Duration(heal)*lc.Unit - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	// Blocking joins or slow recoveries may have pushed the schedule
	// past the nominal heal time; the heal phase starts now regardless.
	healWall := time.Now()

	// The auditor's ledger of the cluster right now. A message counts as
	// held by a proc when it saw a delivery or the proc's explainer
	// reports it delivered (which covers adopted join history and
	// recovery-restored state).
	explain := func(p int, id wire.MsgID) (obs.Explanation, bool) {
		ex, err := cl.Explain(p, id)
		return ex, err == nil
	}
	held := func(p int, id wire.MsgID) bool {
		ex, ok := explain(p, id)
		return ok && ex.Delivered
	}
	snapshot := func() ledger {
		l := ledger{procs: cl.N(), end: heal + int64(time.Since(healWall)/lc.Unit),
			issued: issued, origin: origin, gone: left, pending: joinFail,
			counts: make(map[int]map[wire.MsgID]int, len(counts)),
			held:   held, explain: explain}
		mu.Lock()
		for p, m := range counts {
			l.counts[p] = maps.Clone(m)
		}
		mu.Unlock()
		return l
	}

	deadline := healWall.Add(time.Duration(c.HealDeadline) * lc.Unit)
	for {
		res.Audit = audit(c, snapshot())
		if len(res.Audit.Stalls) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(lc.Unit * 10)
	}
	res.Link = cl.LinkStats()
	return res, nil
}
