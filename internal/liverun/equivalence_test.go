package liverun

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/replay"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// TestSimLiveEquivalence plays one recorded schedule through both
// drivers of the host protocol (internal/host) — sim.Engine on its
// event heap, a live Cluster on goroutines and wall-clock time — over
// reliable links, with one crash→recover and one join in each. Timing
// differs and so do the tags, so message ids and delivery order are not
// comparable; what must agree is the outcome: every process that ends
// live holds the same set of payloads as delivered (delivery events plus
// adopted or restored history), and no process delivered anything twice.
func TestSimLiveEquivalence(t *testing.T) {
	const (
		founders  = 3
		crasher   = 1
		joiner    = founders
		crashAt   = 300
		recoverAt = 500
		joinAt    = 700
		tick      = 10
		// The detector must keep trusting the crashed process across
		// its downtime, or the survivors retire what it still needs.
		trust = 5000
	)
	sched := &replay.Schedule{N: founders + 1}
	for _, e := range []struct {
		at   int64
		proc int
	}{
		{50, 0}, {100, crasher}, {150, 2}, {200, 0},
		{350, 0}, {450, 2}, // while the crasher is down
		{550, crasher}, {600, 2}, // recovered
		{900, joiner}, {950, 0}, {1000, crasher},
	} {
		n := len(sched.Entries) + 1
		sched.Entries = append(sched.Entries, replay.Entry{At: e.at, Proc: e.proc, Size: 16 + n, Digest: uint64(n)})
	}
	link := channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 3}}
	cfg := urb.Config{DeltaAcks: true}

	// held(explain) is the sorted payload set one process reports as
	// delivered, given the ids the run issued.
	held := func(ids []wire.MsgID, explain func(wire.MsgID) obs.Explanation) []string {
		var bodies []string
		for _, id := range ids {
			if explain(id).Delivered {
				bodies = append(bodies, id.Body)
			}
		}
		sort.Strings(bodies)
		return bodies
	}

	// The simulator.
	never := func() []sim.Time { return []sim.Time{sim.Never, sim.Never, sim.Never, sim.Never} }
	scfg := sim.Config{
		N: founders + 1,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewHeartbeatHost(env.Tags, trust, 1, env.Now, cfg)
		},
		Link: link, Seed: 11, TickEvery: tick, MaxTime: 100_000,
		CrashAt: never(), RecoverAt: never(), JoinAt: make([]sim.Time, founders+1),
		Stores:            []store.Store{store.NewMem(), store.NewMem(), store.NewMem(), store.NewMem()},
		CheckpointEvery:   100,
		Broadcasts:        replay.Replayer{Schedule: sched}.Generate(founders+1, nil),
		ExpectDeliveries:  len(sched.Entries),
		NoEarlyStopBefore: 1100,
	}
	scfg.CrashAt[crasher], scfg.RecoverAt[crasher], scfg.JoinAt[joiner] = crashAt, recoverAt, joinAt
	engine := sim.NewEngine(scfg)
	res := engine.Run()
	if !res.Recovered[crasher] || res.JoinedAt[joiner] == sim.Never {
		t.Fatalf("sim: recovered=%v joinedAt=%d", res.Recovered[crasher], res.JoinedAt[joiner])
	}
	simIDs := make([]wire.MsgID, len(res.Broadcasts))
	for i, b := range res.Broadcasts {
		simIDs[i] = b.ID
	}
	simHeld := make([][]string, founders+1)
	for p := range simHeld {
		seen := map[wire.MsgID]bool{}
		for _, d := range res.Deliveries[p] {
			if seen[d.ID] {
				t.Fatalf("sim: proc %d delivered %v twice", p, d.ID)
			}
			seen[d.ID] = true
		}
		simHeld[p] = held(simIDs, engine.Process(p).(obs.Explainer).Explain)
	}

	// The live cluster: the same schedule, cut at the same three faults.
	var (
		mu      sync.Mutex
		counts  = map[int]map[wire.MsgID]int{}
		liveIDs = map[wire.MsgID]bool{}
	)
	unit := 500 * time.Microsecond
	cl := Start(Config{
		N: founders,
		Factory: func(_ int, tags *ident.Source, clock func() int64) urb.Process {
			return urb.NewHeartbeatHost(tags, trust, 1, clock, cfg)
		},
		Link: link, Unit: unit, TickEvery: tick, Seed: 11,
		Stores:          []store.Store{store.NewMem(), store.NewMem(), store.NewMem()},
		CheckpointEvery: 100 * unit,
		OnDeliver: func(d Delivery) {
			mu.Lock()
			defer mu.Unlock()
			if counts[d.Proc] == nil {
				counts[d.Proc] = map[wire.MsgID]int{}
			}
			counts[d.Proc][d.ID]++
			liveIDs[d.ID] = true
		},
	})
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	play := func(from, to int64) {
		t.Helper()
		seg := &replay.Schedule{N: sched.N}
		for _, e := range sched.Entries {
			if from <= e.At && e.At < to {
				e.At -= from
				seg.Entries = append(seg.Entries, e)
			}
		}
		if err := cl.Play(ctx, seg, unit, 1); err != nil {
			t.Fatalf("live: play [%d,%d): %v", from, to, err)
		}
		// Play returns with the segment's last broadcast; idle out the
		// rest of the window so the next fault lands where the simulator
		// puts it.
		time.Sleep(time.Duration(to-from-lastAt(seg)) * unit)
	}
	play(0, crashAt)
	cl.Crash(crasher)
	play(crashAt, recoverAt)
	if err := cl.Recover(crasher); err != nil {
		t.Fatalf("live: recover: %v", err)
	}
	play(recoverAt, joinAt)
	if p, err := cl.Join(store.NewMem()); err != nil || p != joiner {
		t.Fatalf("live: join = %d, %v", p, err)
	}
	play(joinAt, 1100)

	liveHeld := make([][]string, founders+1)
	converged := waitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		ids := make([]wire.MsgID, 0, len(liveIDs))
		for id := range liveIDs {
			ids = append(ids, id)
		}
		mu.Unlock()
		for p := range liveHeld {
			liveHeld[p] = held(ids, func(id wire.MsgID) obs.Explanation {
				ex, _ := cl.Explain(p, id)
				return ex
			})
		}
		return reflect.DeepEqual(liveHeld, simHeld)
	})
	mu.Lock()
	defer mu.Unlock()
	for p, m := range counts {
		for id, n := range m {
			if n > 1 {
				t.Fatalf("live: proc %d delivered %v %d times", p, id, n)
			}
		}
	}
	if !converged {
		t.Fatalf("delivered payload sets differ:\n sim  %v\n live %v", simHeld, liveHeld)
	}
	if len(simHeld[joiner]) != len(sched.Entries) {
		t.Fatalf("the joiner ends holding %d of %d payloads", len(simHeld[joiner]), len(sched.Entries))
	}
}

// lastAt is the time of s's last entry (0 when empty).
func lastAt(s *replay.Schedule) int64 {
	var last int64
	for _, e := range s.Entries {
		if e.At > last {
			last = e.At
		}
	}
	return last
}
