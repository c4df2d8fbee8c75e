package nemesis

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/liverun"
	"anonurb/internal/obs"
	"anonurb/internal/store"
	"anonurb/internal/wire"
)

// LiveBroadcast schedules one workload broadcast for RunLive, in mesh
// elapsed units.
type LiveBroadcast struct {
	At   int64
	Proc int
	Body []byte
}

// LiveRun describes one campaign execution against a live in-process
// cluster (liverun.Cluster): real goroutines, real time, the campaign
// schedule driven wall-clock.
type LiveRun struct {
	// Config is the base cluster; RunLive wraps Config.Link in the
	// campaign overlays and plants Mem stores for crash-recover procs
	// that have none. The mesh hands the link model its elapsed units
	// on every send, so the time-staged overlays activate on their own.
	Config liverun.Config
	// Campaign is the fault script, in mesh units.
	Campaign Campaign
	// Broadcasts is the workload.
	Broadcasts []LiveBroadcast
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

// liveEvent is one merged schedule entry.
type liveEvent struct {
	at    int64
	order int // tie-break: broadcasts first, then faults, in stage order
	run   func()
}

// RunLive executes the campaign against a live cluster and audits
// convergence after heal. Cluster reconfiguration (crash, recover,
// join, leave) must be single-goroutine, so the schedule is driven
// serially; a Join blocks for its snapshot transfer, which can slip
// later events — the audit measures from the actual heal instant, and
// the donor-crash-during-transfer interleaving is exercised
// deterministically by the simulator campaigns instead (DESIGN.md
// §15).
func RunLive(lr LiveRun) (*LiveResult, error) {
	c := lr.Campaign
	cfg := lr.Config
	if err := c.Validate(cfg.N, true); err != nil {
		return nil, err
	}
	if cfg.Link == nil {
		return nil, fmt.Errorf("nemesis: live run needs a base link model")
	}
	if cfg.Unit <= 0 {
		cfg.Unit = time.Millisecond
	}
	cfg.Link = c.BuildLink(cfg.Link)

	// Fault procs need stores to recover from; plant Mem stores where
	// the base config has none.
	growStores := func(p int) {
		// liverun.Start insists Stores, when present, covers every proc.
		for len(cfg.Stores) < cfg.N || len(cfg.Stores) <= p {
			cfg.Stores = append(cfg.Stores, nil)
		}
		if cfg.Stores[p] == nil {
			cfg.Stores[p] = store.NewMem()
		}
	}
	memStore := func(p int) (*store.Mem, error) {
		if p < len(cfg.Stores) {
			if m, ok := cfg.Stores[p].(*store.Mem); ok {
				return m, nil
			}
		}
		return nil, fmt.Errorf("nemesis: campaign %q: proc %d store fault needs a *store.Mem store", c.Name, p)
	}
	for _, s := range c.stagesOf(StageCrash) {
		if s.RecoverAfter > 0 {
			for _, p := range s.Procs {
				growStores(p)
			}
		}
	}

	// Per-proc receipt counts, under one lock.
	var (
		mu     sync.Mutex
		counts = map[int]map[wire.MsgID]int{}
	)
	base := cfg.OnDeliver
	cfg.OnDeliver = func(d liverun.Delivery) {
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

	cl := liverun.Start(cfg)
	defer cl.Stop()
	res := &LiveResult{}

	// Campaign bookkeeping the auditor needs.
	var (
		left      = map[int]bool{}   // gone for good: left, or crashed with no recovery
		joinFail  []int              // scheduled joins that did not complete
		corrupted = map[int]func(){} // armed snapcorrupt: proc → clear-and-note
		issued    = map[wire.MsgID]int64{}
		origin    = map[wire.MsgID]int{}
		preCrash  = map[int]map[wire.MsgID]int{} // receipt counts at crash instant
	)

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

	var events []liveEvent
	for _, b := range lr.Broadcasts {
		b := b
		events = append(events, liveEvent{at: b.At, order: -1, run: func() {
			if left[b.Proc] {
				return
			}
			id, err := cl.Node(b.Proc).Broadcast(b.Body)
			if err == nil {
				issued[id] = b.At
				origin[id] = b.Proc
			}
		}})
	}
	for i, s := range c.Stages {
		s := s
		switch s.Kind {
		case StageCrash:
			for _, p := range s.Procs {
				p := p
				recovers := s.RecoverAfter > 0
				events = append(events, liveEvent{at: s.From, order: i, run: func() {
					cl.Crash(p)
					if recovers {
						mu.Lock()
						snap := make(map[wire.MsgID]int, len(counts[p]))
						for id, n := range counts[p] {
							snap[id] = n
						}
						preCrash[p] = snap
						mu.Unlock()
					}
				}})
				if recovers {
					events = append(events, liveEvent{at: s.From + s.RecoverAfter, order: i, run: func() {
						if err := cl.Recover(p); err != nil {
							if note := corrupted[p]; note != nil {
								// The corrupt snapshot was refused, as it
								// must be. Restore and try again.
								note()
								delete(corrupted, p)
								err = cl.Recover(p)
							}
							if err != nil {
								left[p] = true
								return
							}
						}
						reconcileTorn(p)
					}})
				} else {
					events = append(events, liveEvent{at: s.From, order: i, run: func() { left[p] = true }})
				}
			}
		case StageJoin:
			for _, p := range s.Procs {
				p := p
				events = append(events, liveEvent{at: s.From, order: i, run: func() {
					if p != cl.N() {
						joinFail = append(joinFail, p)
					} else if _, err := cl.Join(nil); err != nil {
						joinFail = append(joinFail, p)
					}
				}})
			}
		case StageLeave:
			for _, p := range s.Procs {
				p := p
				events = append(events, liveEvent{at: s.From, order: i, run: func() {
					cl.Leave(p)
					left[p] = true
				}})
			}
		case StageTornWAL:
			for _, p := range s.Procs {
				p := p
				events = append(events, liveEvent{at: s.From, order: i, run: func() {
					if m, err := memStore(p); err == nil {
						m.TearTail()
					}
				}})
			}
		case StageSnapCorrupt:
			for _, p := range s.Procs {
				p := p
				events = append(events, liveEvent{at: s.From, order: i, run: func() {
					m, err := memStore(p)
					if err != nil {
						return
					}
					m.SetSnapshotMutator(snapGarbler{})
					corrupted[p] = func() {
						m.SetSnapshotMutator(nil)
						res.CorruptRejected = append(res.CorruptRejected, p)
					}
				}})
			}
		}
	}
	// Store-fault setup must precede its target's recovery at equal
	// times; broadcasts go first so a same-instant crash races the send
	// through the mesh rather than trivially preceding it.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].order < events[j].order
	})

	start := time.Now()
	for _, ev := range events {
		if d := time.Duration(ev.at)*cfg.Unit - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		ev.run()
	}

	heal := c.HealTime()
	if d := time.Duration(heal)*cfg.Unit - time.Since(start); d > 0 {
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
		l := ledger{procs: cl.N(), end: heal + int64(time.Since(healWall)/cfg.Unit),
			issued: issued, origin: origin, gone: left, pending: joinFail,
			counts: make(map[int]map[wire.MsgID]int, len(counts)),
			held:   held, explain: explain}
		mu.Lock()
		for p, m := range counts {
			cp := make(map[wire.MsgID]int, len(m))
			for id, n := range m {
				cp[id] = n
			}
			l.counts[p] = cp
		}
		mu.Unlock()
		return l
	}

	deadline := healWall.Add(time.Duration(c.HealDeadline) * cfg.Unit)
	for {
		res.Audit = audit(c, snapshot())
		if len(res.Audit.Stalls) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(cfg.Unit * 10)
	}
	res.Link = cl.LinkStats()
	return res, nil
}
