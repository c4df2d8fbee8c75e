package liverun

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// collector accumulates deliveries thread-safely.
type collector struct {
	mu   sync.Mutex
	byID map[wire.MsgID]map[int]bool
	all  []Delivery
}

func newCollector() *collector {
	return &collector{byID: make(map[wire.MsgID]map[int]bool)}
}

func (c *collector) onDeliver(d Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byID[d.ID] == nil {
		c.byID[d.ID] = make(map[int]bool)
	}
	if c.byID[d.ID][d.Proc] {
		panic("duplicate delivery at one process")
	}
	c.byID[d.ID][d.Proc] = true
	c.all = append(c.all, d)
}

// deliveredBy reports how many processes delivered the message with the
// given body.
func (c *collector) deliveredBy(body string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, procs := range c.byID {
		if id.Body == body {
			return len(procs)
		}
	}
	return 0
}

// waitFor polls cond every ms up to limit.
func waitFor(t *testing.T, limit time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func majorityFactory(n int) Factory {
	return func(_ int, tags *ident.Source, _ func() int64) urb.Process {
		return urb.NewMajority(n, tags, urb.Config{})
	}
}

func fastCfg(n int, f Factory, loss float64, onDeliver func(Delivery)) Config {
	return Config{
		N:         n,
		Factory:   f,
		Link:      channel.Bernoulli{P: loss, D: channel.UniformDelay{Min: 1, Max: 3}},
		Unit:      200 * time.Microsecond,
		TickEvery: 5,
		Seed:      42,
		OnDeliver: onDeliver,
	}
}

func TestLiveMajorityAllDeliver(t *testing.T) {
	const n = 5
	col := newCollector()
	c := Start(fastCfg(n, majorityFactory(n), 0.2, col.onDeliver))
	defer c.Stop()

	if !c.Broadcast(0, []byte("hello")) || !c.Broadcast(3, []byte("world")) {
		t.Fatal("broadcast refused")
	}
	ok := waitFor(t, 5*time.Second, func() bool {
		return col.deliveredBy("hello") == n && col.deliveredBy("world") == n
	})
	if !ok {
		t.Fatalf("cluster did not converge: hello=%d world=%d",
			col.deliveredBy("hello"), col.deliveredBy("world"))
	}
	sends, _ := c.NetStats()
	if sends == 0 {
		t.Fatal("no traffic")
	}
}

func TestLiveMajorityCrashTolerance(t *testing.T) {
	const n = 5
	col := newCollector()
	c := Start(fastCfg(n, majorityFactory(n), 0.15, col.onDeliver))
	defer c.Stop()

	c.Broadcast(0, []byte("m"))
	// Crash a minority while the message is in flight.
	c.Crash(4)
	ok := waitFor(t, 5*time.Second, func() bool {
		return col.deliveredBy("m") >= n-1
	})
	if !ok {
		t.Fatalf("survivors did not converge: %d", col.deliveredBy("m"))
	}
	if c.Broadcast(4, []byte("zombie")) {
		t.Fatal("crashed process accepted a broadcast")
	}
	if st := c.Stats(4); st.Delivered != 0 || st.MsgSet != 0 {
		t.Fatal("crashed process returned live stats")
	}
}

func TestLiveQuiescentDeliversAndGoesQuiet(t *testing.T) {
	const n = 4
	correct := []bool{true, true, true, true}
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 5}, correct)
	col := newCollector()
	factory := func(i int, tags *ident.Source, clock func() int64) urb.Process {
		return urb.NewQuiescent(oracle.Handle(i, clock), tags, urb.Config{})
	}
	c := Start(fastCfg(n, factory, 0.1, col.onDeliver))
	defer c.Stop()

	c.Broadcast(1, []byte("quiet-please"))
	if !waitFor(t, 5*time.Second, func() bool { return col.deliveredBy("quiet-please") == n }) {
		t.Fatalf("not converged: %d", col.deliveredBy("quiet-please"))
	}
	// After delivery everywhere, retirement must silence the cluster.
	if !waitFor(t, 10*time.Second, func() bool { return c.QuietFor(20 * time.Millisecond) }) {
		t.Fatal("cluster never went quiet — Algorithm 2 should be quiescent")
	}
	// And the retransmission sets must be empty.
	for i := 0; i < n; i++ {
		if st := c.Stats(i); st.MsgSet != 0 {
			t.Fatalf("p%d still holds %d messages", i, st.MsgSet)
		}
	}
}

func TestLiveStopIdempotentAndSafe(t *testing.T) {
	const n = 3
	c := Start(fastCfg(n, majorityFactory(n), 0, nil))
	c.Broadcast(0, []byte("x"))
	c.Stop()
	c.Stop() // idempotent
	if c.Broadcast(0, []byte("y")) {
		t.Fatal("stopped cluster accepted a broadcast")
	}
	if c.String() == "" {
		t.Fatal("string")
	}
}

func TestLiveConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("n", func() { Start(Config{}) })
	mustPanic("factory", func() { Start(Config{N: 1, Link: channel.Blackhole{}}) })
}

func TestLiveElapsedAdvances(t *testing.T) {
	c := Start(fastCfg(2, majorityFactory(2), 0, nil))
	defer c.Stop()
	a := c.ElapsedUnits()
	time.Sleep(5 * time.Millisecond)
	if c.ElapsedUnits() <= a {
		t.Fatal("clock did not advance")
	}
}

func TestLiveConcurrentBroadcastStress(t *testing.T) {
	// Many writers broadcasting concurrently from outside goroutines
	// while a node crashes mid-run: no races (run with -race), no
	// duplicate deliveries (collector panics on dup), and all surviving
	// nodes converge on every message from a correct writer.
	const n = 6
	const perWriter = 5
	col := newCollector()
	c := Start(fastCfg(n, majorityFactory(n), 0.1, col.onDeliver))
	defer c.Stop()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				c.Broadcast(w, []byte(fmt.Sprintf("w%d-%d", w, k)))
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	c.Crash(5)

	ok := waitFor(t, 15*time.Second, func() bool {
		for w := 0; w < 3; w++ {
			for k := 0; k < perWriter; k++ {
				if col.deliveredBy(fmt.Sprintf("w%d-%d", w, k)) < n-1 {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		t.Fatal("stress run did not converge")
	}
}

func TestLiveQuiescentHeartbeatStack(t *testing.T) {
	// The oracle-free live stack: heartbeat hosts over the cluster.
	testLiveHeartbeatStack(t, urb.Config{})
}

func TestLiveQuiescentHeartbeatStackDeltaBeats(t *testing.T) {
	// The full steady-state configuration over a lossy mesh: delta ACKs,
	// post-delivery compaction, and BEATΔ streams — lost beat snapshots
	// must heal through the BEATREQ path for the detectors to converge.
	testLiveHeartbeatStack(t, urb.Config{DeltaAcks: true, CompactDelivered: true, DeltaBeats: true})
}

func testLiveHeartbeatStack(t *testing.T, cfg urb.Config) {
	const n = 3
	col := newCollector()
	factory := func(_ int, tags *ident.Source, clock func() int64) urb.Process {
		return urb.NewHeartbeatHost(tags, 200, 1, clock, cfg)
	}
	c := Start(fastCfg(n, factory, 0.1, col.onDeliver))
	defer c.Stop()

	// Let detectors learn each other.
	time.Sleep(30 * time.Millisecond)
	c.Broadcast(0, []byte("hb-live"))
	if !waitFor(t, 10*time.Second, func() bool { return col.deliveredBy("hb-live") == n }) {
		t.Fatalf("heartbeat stack did not converge: %d", col.deliveredBy("hb-live"))
	}
	// Algorithm-level quiescence: retransmission sets drain even though
	// beats keep the wire busy.
	if !waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < n; i++ {
			if c.Stats(i).MsgSet != 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("algorithm traffic did not retire")
	}
}

func TestLiveJoinLeave(t *testing.T) {
	// Membership churn end to end: a heartbeat-stack cluster grows by
	// one (real snapshot transfer over the lossy mesh), the joiner
	// participates both ways without re-delivering adopted history, and
	// a leaving process goes silent without wedging the survivors. Both
	// ACK encodings, with one and with sixteen messages of pre-join
	// history (what sizes the snapshot).
	for _, tc := range []struct {
		name    string
		delta   bool
		history int
	}{
		{"full-set/h1", false, 1},
		{"full-set/h16", false, 16},
		{"delta/h1", true, 1},
		{"delta/h16", true, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := newCollector()
			const n = 3
			factory := func(_ int, tags *ident.Source, clock func() int64) urb.Process {
				return urb.NewHeartbeatHost(tags, 200, 1, clock, urb.Config{DeltaAcks: tc.delta})
			}
			c := Start(fastCfg(n, factory, 0.1, col.onDeliver))
			defer c.Stop()

			time.Sleep(30 * time.Millisecond)
			history := func(want int) bool {
				for i := 0; i < tc.history; i++ {
					if col.deliveredBy(fmt.Sprintf("pre-join-%d", i)) != want {
						return false
					}
				}
				return true
			}
			for i := 0; i < tc.history; i++ {
				c.Broadcast(i%n, []byte(fmt.Sprintf("pre-join-%d", i)))
			}
			if !waitFor(t, 15*time.Second, func() bool { return history(n) }) {
				t.Fatal("pre-join history never delivered everywhere")
			}

			joiner, err := c.Join(store.NewMem())
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			if joiner != n {
				t.Fatalf("joiner index = %d, want %d", joiner, n)
			}
			if c.N() != n+1 {
				t.Fatalf("N after join = %d", c.N())
			}
			joined := c.Node(joiner).JoinedBytes()
			if joined == 0 {
				t.Fatal("join transferred zero bytes")
			}
			// The donors put at least the joiner's container on the wire.
			var snapBytes uint64
			for p := 0; p < c.N(); p++ {
				_, _, _, snap, _ := c.Node(p).ByteStats()
				snapBytes += snap
			}
			if snapBytes < uint64(joined) {
				t.Fatalf("catch-up wire bytes %d below the joiner's %d-byte container", snapBytes, joined)
			}

			// The joiner hears new traffic and its own broadcasts reach all.
			if !c.Broadcast(joiner, []byte("from-joiner")) {
				t.Fatal("joiner broadcast refused")
			}
			c.Broadcast(1, []byte("post-join"))
			if !waitFor(t, 15*time.Second, func() bool {
				return col.deliveredBy("from-joiner") == n+1 && col.deliveredBy("post-join") == n+1
			}) {
				t.Fatalf("post-join convergence stuck: from-joiner=%d post-join=%d",
					col.deliveredBy("from-joiner"), col.deliveredBy("post-join"))
			}
			// The collector panics on duplicate delivery, so adopted history
			// re-delivering at the joiner would have crashed the run; check the
			// joiner also never delivered pre-join history late.
			if !history(n) {
				t.Fatal("pre-join history re-delivered after the join")
			}

			// Leave: the departed process goes silent, the rest keep delivering.
			c.Leave(1)
			c.Broadcast(2, []byte("post-leave"))
			if !waitFor(t, 15*time.Second, func() bool { return col.deliveredBy("post-leave") == n }) {
				t.Fatalf("post-leave convergence stuck at %d/%d", col.deliveredBy("post-leave"), n)
			}
		})
	}
}
