package liverun

import (
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

// deliveryLog counts deliveries per (proc, msg) for duplicate detection.
type deliveryLog struct {
	mu    sync.Mutex
	count map[int]map[wire.MsgID]int
}

func newDeliveryLog() *deliveryLog {
	return &deliveryLog{count: make(map[int]map[wire.MsgID]int)}
}

func (l *deliveryLog) add(d Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count[d.Proc] == nil {
		l.count[d.Proc] = make(map[wire.MsgID]int)
	}
	l.count[d.Proc][d.ID]++
}

func (l *deliveryLog) get(proc int, id wire.MsgID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count[proc][id]
}

func (l *deliveryLog) waitFor(t *testing.T, proc int, id wire.MsgID, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		if l.get(proc, id) >= 1 {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("proc %d never delivered %v", proc, id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterCrashRecover kills a durable node mid-run (under 15% frame
// loss), restarts it from its store, and asserts the URB guarantees
// across the restart: no re-delivery, full catch-up, continued service.
// Both algorithms run over both stores: a memory store checkpointing
// every 10ms, so recovery restores a snapshot, and a file store that
// never checkpoints, so recovery replays the whole WAL.
func TestClusterCrashRecover(t *testing.T) {
	const n = 5
	algos := []struct {
		name    string
		factory func() Factory
		// waits: the survivors cannot deliver while node 2 is down. An
		// all-correct oracle keeps node 2's label in every Algorithm 2
		// view, so its ACK is needed.
		waits bool
	}{
		{"majority", func() Factory { return majorityFactory(n) }, false},
		{"quiescent", func() Factory {
			oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 5},
				[]bool{true, true, true, true, true})
			return func(i int, tags *ident.Source, clock func() int64) urb.Process {
				return urb.NewQuiescent(oracle.Handle(i, clock), tags, urb.Config{DeltaAcks: true})
			}
		}, true},
	}
	backends := []struct {
		name string
		open func(t *testing.T) store.Store
		// every is the checkpoint cadence; an hour means WAL-only.
		every time.Duration
	}{
		{"mem-checkpointed", func(*testing.T) store.Store { return store.NewMem() }, 10 * time.Millisecond},
		{"file-wal-only", func(t *testing.T) store.Store {
			st, err := store.OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return st
		}, time.Hour},
	}
	for _, a := range algos {
		for _, s := range backends {
			t.Run(a.name+"/"+s.name, func(t *testing.T) {
				log := newDeliveryLog()
				stores := make([]store.Store, n)
				stores[2] = s.open(t)
				c := Start(Config{
					N:               n,
					Factory:         a.factory(),
					Link:            channel.Bernoulli{P: 0.15, D: channel.UniformDelay{Min: 0, Max: 2}},
					Unit:            time.Millisecond,
					TickEvery:       2,
					Seed:            2015,
					OnDeliver:       log.add,
					Stores:          stores,
					CheckpointEvery: s.every,
				})
				defer c.Stop()

				// Phase 1: a message delivered everywhere, persisted on node 2.
				id1, err := c.Node(0).Broadcast([]byte("phase-1"))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					log.waitFor(t, i, id1, 10*time.Second)
				}
				if s.every < time.Hour && !waitFor(t, 10*time.Second, func() bool {
					return c.Node(2).StoreStats().Checkpoints > 0
				}) {
					t.Fatal("node 2 never checkpointed before the crash")
				}

				// Crash the durable node; the survivors keep going.
				c.Crash(2)
				id2, err := c.Node(1).Broadcast([]byte("phase-2"))
				if err != nil {
					t.Fatal(err)
				}
				survivors := []int{0, 1, 3, 4}
				if !a.waits {
					for _, i := range survivors {
						log.waitFor(t, i, id2, 10*time.Second)
					}
				}
				if got := log.get(2, id2); got != 0 {
					t.Fatalf("crashed node delivered %d copies of id2", got)
				}

				// Recover node 2 from its store.
				if err := c.Recover(2); err != nil {
					t.Fatalf("recover: %v", err)
				}
				snapBytes, walRecords := c.Node(2).RecoveryStats()
				if s.every < time.Hour && snapBytes == 0 {
					t.Fatal("checkpointed recovery restored no snapshot")
				}
				if s.every == time.Hour && walRecords == 0 {
					t.Fatal("WAL-only recovery replayed no WAL records")
				}
				// It catches up on what it missed...
				for i := 0; i < n; i++ {
					log.waitFor(t, i, id2, 10*time.Second)
				}
				// ...serves new traffic...
				id3, err := c.Node(2).Broadcast([]byte("phase-3"))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					log.waitFor(t, i, id3, 10*time.Second)
				}
				// ...and re-delivered nothing (uniform integrity across the restart).
				for _, id := range []wire.MsgID{id1, id2, id3} {
					for i := 0; i < n; i++ {
						if got := log.get(i, id); got > 1 {
							t.Fatalf("proc %d delivered %v %d times", i, id, got)
						}
					}
				}
				if got := log.get(2, id1); got != 1 {
					t.Fatalf("node 2 delivered id1 %d times across the restart, want exactly 1 (before the crash)", got)
				}
				// Post-recovery algorithm state: everything delivered, nothing lost.
				if st := c.Stats(2); st.Delivered != 3 {
					t.Fatalf("recovered node's delivered set = %d, want 3", st.Delivered)
				}
			})
		}
	}
}

// TestClusterRecoverRequiresStore: Recover on a store-less process fails
// cleanly instead of fabricating an amnesiac restart.
func TestClusterRecoverRequiresStore(t *testing.T) {
	c := Start(Config{
		N: 2,
		Factory: func(i int, tags *ident.Source, clock func() int64) urb.Process {
			return urb.NewMajority(2, tags, urb.Config{})
		},
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Seed: 1,
	})
	defer c.Stop()
	c.Crash(0)
	if err := c.Recover(0); err == nil {
		t.Fatal("Recover succeeded without a store")
	}
}
