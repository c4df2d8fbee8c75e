package liverun

import (
	"context"
	"sync"
	"testing"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/channel"
	"anonurb/internal/replay"
	"anonurb/internal/sim"
	"anonurb/internal/wire"
	"anonurb/internal/workload"
	"anonurb/internal/xrand"
)

// TestClusterFlowPinningAndAdmission: a cluster with pinned flows and a
// (generous) admission stage attributes every delivery to the
// broadcaster's flow, exposes per-flow counters on every node, and
// demotes nobody when traffic is polite.
func TestClusterFlowPinningAndAdmission(t *testing.T) {
	const n = 4
	flows := []uint64{0xA1, 0xB2, 0xC3, 0xD4}
	cfg := admit.Config{Rate: 64 << 20, Burst: 4 << 20}
	c := Start(Config{
		N:         n,
		Factory:   majorityFactory(n),
		Link:      channel.Reliable{D: channel.FixedDelay(0)},
		Unit:      time.Millisecond,
		TickEvery: 5,
		Seed:      17,
		Flows:     flows,
		Admission: &cfg,
	})
	defer c.Stop()

	for p := 0; p < n; p++ {
		if !c.Broadcast(p, []byte{byte(p), 1}) || !c.Broadcast(p, []byte{byte(p), 2}) {
			t.Fatalf("broadcast from %d failed", p)
		}
	}
	// Every node must deliver 2 messages from each of the 4 flows.
	ok := waitFor(t, 5*time.Second, func() bool {
		for p := 0; p < n; p++ {
			fd := c.Node(p).FlowDeliveries()
			for _, f := range flows {
				if fd[f] != 2 {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("flow deliveries incomplete: %v", c.Node(0).FlowDeliveries())
	}
	for p := 0; p < n; p++ {
		st, present := c.Node(p).AdmitStats()
		if !present {
			t.Fatalf("node %d has no admission stage", p)
		}
		if st.Demotions != 0 || len(st.Flows) != 0 {
			t.Fatalf("node %d demoted polite traffic: %+v", p, st)
		}
		if st.AdmittedMsgs == 0 {
			t.Fatalf("node %d admitted nothing", p)
		}
	}
}

// TestFairAdmission drives five broadcast schedules through a Majority
// cluster twice, behind a FIFO admission stage and behind the fair one
// with the same total lane budget, and counts each flow's deliveries at
// a deadline. The fair stage must leave the uniform controls untouched
// (nothing lost, nobody demoted), must never demote a flow the scenario
// did not make hot, and on the flood must demote the flooder and lose
// fewer victim deliveries than FIFO whenever FIFO lost any.
func TestFairAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("losses are counted at a wall-clock deadline")
	}
	const n = 6
	for i, tc := range []struct {
		name string
		wl   workload.Broadcasts
		// hot is the process the schedule makes heavy (-1: none);
		// demoting its flow is a true positive.
		hot int
		// uniform: the fair run must lose nothing and demote nobody.
		uniform bool
		// victims: the fair run must demote the hot flow and lose fewer
		// victim deliveries than FIFO whenever FIFO lost any.
		victims bool
	}{
		{"uniform-multi", workload.MultiWriter{Writers: n, PerWriter: 3, Start: 1, Interval: 12}, -1, true, false},
		{"uniform-poisson", workload.PoissonWriters{Count: 3 * n, MeanGap: 6, Start: 1, BodyStamp: "p"}, -1, true, false},
		{"zipf", workload.ZipfWriters{Count: 5 * n, S: 1.2, MeanGap: 4, Payload: 96}, 0, false, false},
		{"burst", workload.BurstTrains{Trains: 5, PerTrain: 8, Spacing: 1, Gap: 60, Payload: 128}, -1, false, false},
		{"flood", workload.Flood{Flooder: 0, Count: 200, Spacing: 2, Payload: 4 << 10,
			VictimMsgs: 4, VictimSize: 32}, 0, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := tc.wl.Generate(n, xrand.New(2015+uint64(i)))
			fifo := runAdmission(t, n, sched, tc.hot, true)
			fair := runAdmission(t, n, sched, tc.hot, false)
			t.Logf("fifo %+v", fifo)
			t.Logf("fair %+v", fair)
			if fair.falseDemotions != 0 {
				t.Errorf("%d flows demoted that the scenario did not make hot", fair.falseDemotions)
			}
			if tc.uniform && (fair.victimLost != 0 || fair.hotLost != 0 || fair.demotions != 0) {
				t.Errorf("fair stage damaged a uniform workload: %+v", fair)
			}
			if tc.victims && fair.demotions == 0 {
				t.Error("the flood never tripped the detector")
			}
			if tc.victims && fifo.victimLost > 0 && fair.victimLost >= fifo.victimLost {
				t.Errorf("fair stage did not protect the victims: %d lost vs FIFO's %d", fair.victimLost, fifo.victimLost)
			}
		})
	}
}

// admissionRun is one mode's outcome: deliveries missing at the
// deadline, split between the hot process's flow and everyone else's,
// plus demotions cluster-wide and the distinct non-hot flows demoted.
type admissionRun struct {
	victimLost, hotLost uint64
	demotions           uint64
	falseDemotions      int
}

// runAdmission plays sched against a fresh cluster, each process
// pinned to its own flow, behind the fair admission stage or (fifo) the
// same stage with detection off and the same total lane budget. Losses
// count at a 1.5s deadline: overload loses deliveries both to shed
// frames and to queueing behind a flood, and a deadline charges both.
func runAdmission(t *testing.T, n int, sched []sim.ScheduledBroadcast, hot int, fifo bool) admissionRun {
	t.Helper()
	// Rate sits an order of magnitude above the heaviest legitimate flow
	// here and two below the flood, so skew alone never demotes; Burst
	// absorbs scheduler stalls that charge several ticks at once.
	acfg := admit.Config{Rate: 32 << 20, Burst: 1 << 20, Penalty: 300 * time.Millisecond,
		HighDepth: 192, LowDepth: 64, Flows: 256}.WithDefaults()
	if fifo {
		acfg.FIFO = true
		acfg.HighDepth += acfg.LowDepth
		acfg.LowDepth = 1
	}
	flows := make([]uint64, n)
	perProc := make([]*replay.Schedule, n)
	for p := range flows {
		flows[p] = uint64(p + 1)
		perProc[p] = &replay.Schedule{N: n}
	}
	for _, b := range sched {
		perProc[b.Proc].Entries = append(perProc[b.Proc].Entries,
			replay.Entry{At: b.At, Proc: b.Proc, Size: len(b.Body), Digest: replay.BodyDigest(b.Body)})
	}
	// Reliable links and a deep mesh inbox: overload lands on the
	// admission lanes, not on a second shedding point below them.
	c := Start(Config{
		N:          n,
		Factory:    majorityFactory(n),
		Link:       channel.Reliable{D: channel.FixedDelay(0)},
		Unit:       time.Millisecond,
		TickEvery:  5,
		Seed:       7,
		InboxDepth: 1 << 15,
		Flows:      flows,
		Admission:  &acfg,
	})
	defer c.Stop()

	// One goroutine per process: a saturated node stalls only its own
	// injection, as an overloaded producer would.
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for _, s := range perProc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Play(ctx, s, time.Millisecond, 1) // an error means the deadline passed
		}()
	}
	want := uint64(len(sched) * n)
	delivered := func() (sum uint64) {
		for p := 0; p < n; p++ {
			for _, k := range c.Node(p).FlowDeliveries() {
				sum += k
			}
		}
		return sum
	}
	for ctx.Err() == nil && delivered() < want {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	var r admissionRun
	var victimGot, hotGot uint64
	demoted := map[uint64]bool{}
	for p := 0; p < n; p++ {
		for f, k := range c.Node(p).FlowDeliveries() {
			if int(f) == hot+1 {
				hotGot += k
			} else {
				victimGot += k
			}
		}
		st, _ := c.Node(p).AdmitStats()
		r.demotions += st.Demotions
		for _, fs := range st.Flows {
			if fs.Demoted {
				demoted[fs.Flow] = true
			}
		}
	}
	for f := range demoted {
		if int(f) != hot+1 {
			r.falseDemotions++
		}
	}
	var victimWant, hotWant uint64
	for _, b := range sched {
		if b.Proc == hot {
			hotWant += uint64(n)
		} else {
			victimWant += uint64(n)
		}
	}
	r.victimLost = victimWant - min(victimWant, victimGot)
	r.hotLost = hotWant - min(hotWant, hotGot)
	return r
}

// TestClusterWithoutFlows: nil Flows keeps full anonymity — every
// delivered message carries its own flow key (the Hi half of its tag) —
// and a node without admission keeps no per-flow counts.
func TestClusterWithoutFlows(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	flows := map[uint64]bool{}
	c := Start(Config{
		N:       n,
		Factory: majorityFactory(n),
		Link:    channel.Reliable{D: channel.FixedDelay(0)},
		Unit:    time.Millisecond,
		Seed:    18,
		OnDeliver: func(d Delivery) {
			if d.Proc == 1 {
				mu.Lock()
				flows[wire.FlowOf(d.ID.Tag)] = true
				mu.Unlock()
			}
		},
	})
	defer c.Stop()
	for i := 0; i < 3; i++ {
		if !c.Broadcast(0, []byte{9, byte(i)}) {
			t.Fatal("broadcast failed")
		}
	}
	if !waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(flows) == 3
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("per-message flows collapsed: %v", flows)
	}
	if fd := c.Node(1).FlowDeliveries(); len(fd) != 0 {
		t.Fatalf("a node without admission counts flows: %v", fd)
	}
	if _, present := c.Node(0).AdmitStats(); present {
		t.Fatal("admission stage present without configuration")
	}
}
