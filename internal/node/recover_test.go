package node

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// collect drains deliveries until want distinct IDs arrived or the
// deadline passes.
func collect(t *testing.T, ch <-chan Delivery, want int, deadline time.Duration) map[wire.MsgID]int {
	t.Helper()
	got := make(map[wire.MsgID]int)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for len(got) < want {
		select {
		case d, ok := <-ch:
			if !ok {
				return got
			}
			got[d.ID]++
		case <-timer.C:
			return got
		}
	}
	return got
}

// TestNodeCrashRecover is the end-to-end node-layer recovery check: a
// durable node is killed mid-run and restarted via Recover; it must
// re-deliver nothing, catch up on messages broadcast while it was down,
// and keep serving from the state it persisted.
func TestNodeCrashRecover(t *testing.T) {
	const n = 3
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    n,
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: time.Millisecond,
		Seed: 42,
	})
	defer mesh.Close()

	st := store.NewMem()
	mkProc := func(i int) urb.Process {
		return urb.NewMajority(n, ident.NewSource(xrand.New(uint64(1000+i))), urb.Config{})
	}
	nodes := make([]*Node, n)
	inboxes := make([]<-chan Delivery, n)
	for i := 0; i < n; i++ {
		opts := []Option{WithTickEvery(2 * time.Millisecond), WithSeed(uint64(i))}
		if i == 0 {
			opts = append(opts, WithStore(st), WithCheckpointEvery(5*time.Millisecond))
		}
		nodes[i] = New(mkProc(i), mesh.Endpoint(i), opts...)
		inboxes[i] = nodes[i].Deliveries()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, nd := range nodes {
		if err := nd.Start(ctx); err != nil {
			t.Fatal(err)
		}
		defer nd.Stop()
	}

	// Phase 1: one message delivered everywhere, durably on node 0.
	m1, err := nodes[0].Broadcast([]byte("before-crash"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := collect(t, inboxes[i], 1, 5*time.Second); got[m1] != 1 {
			t.Fatalf("node %d: m1 deliveries = %v", i, got)
		}
	}
	// Let at least one checkpoint land (cadence 5ms, rides 2ms ticks).
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].StoreStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint before crash: %+v", nodes[0].StoreStats())
		}
		time.Sleep(time.Millisecond)
	}
	ss := nodes[0].StoreStats()
	if ss.WALAppends == 0 || ss.Err != nil {
		t.Fatalf("store stats before crash: %+v", ss)
	}

	// Crash node 0.
	nodes[0].Stop()

	// The survivors make progress while it is down (n=3 majority needs
	// only 2 ackers).
	m2, err := nodes[1].Broadcast([]byte("while-down"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if got := collect(t, inboxes[i], 1, 5*time.Second); got[m2] != 1 {
			t.Fatalf("node %d: m2 deliveries = %v", i, got)
		}
	}

	// Recover node 0: same constructor parameters, same tag seed, fresh
	// mesh endpoint.
	rec, err := Recover(mkProc(0), st, mesh.Reopen(0),
		WithTickEvery(2*time.Millisecond), WithSeed(0), WithCheckpointEvery(5*time.Millisecond))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	snapBytes, walRecs := rec.RecoveryStats()
	if snapBytes == 0 {
		t.Fatal("recovery replayed no snapshot despite checkpoints")
	}
	_ = walRecs // may be zero if the last checkpoint caught everything
	inbox := rec.Deliveries()
	if err := rec.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	// It catches up on m2 — and must NOT re-deliver m1.
	got := collect(t, inbox, 1, 10*time.Second)
	if got[m2] != 1 {
		t.Fatalf("recovered node did not catch up on m2: %v", got)
	}
	if got[m1] != 0 {
		t.Fatalf("recovered node re-delivered m1: %v", got)
	}
	// Give it a little longer: still no m1.
	select {
	case d := <-inbox:
		t.Fatalf("unexpected post-recovery delivery %v", d.ID)
	case <-time.After(50 * time.Millisecond):
	}

	// And it serves new broadcasts from its recovered state.
	m3, err := rec.Broadcast([]byte("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if got := collect(t, inboxes[i], 1, 5*time.Second); got[m3] != 1 {
			t.Fatalf("node %d: m3 deliveries = %v", i, got)
		}
	}
	if got := collect(t, inbox, 1, 5*time.Second); got[m3] != 1 {
		t.Fatalf("recovered node did not deliver its own m3: %v", got)
	}
	if err := rec.StoreStats().Err; err != nil {
		t.Fatalf("store error after recovery: %v", err)
	}
}

// snapFailStore is a store whose SaveSnapshot always fails.
type snapFailStore struct{ *store.Mem }

func (snapFailStore) SaveSnapshot([]byte) error { return errors.New("disk full") }

// TestRecoverAndJoinBuildTheNodeLast: when the baseline checkpoint
// fails, Recover and Join return the error having built no node — so
// with WithAdmission no admission stage was wrapped around the
// transport and none of its goroutines started. (The WAL-only,
// snapshot and torn-tail recovery cases themselves are internal/host's
// TestRecover.)
func TestRecoverAndJoinBuildTheNodeLast(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    2,
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: time.Millisecond,
		Seed: 7,
	})
	defer mesh.Close()
	mk := func() urb.Process { return urb.NewMajority(1, ident.NewSource(xrand.New(5)), urb.Config{}) }
	container := store.EncodeSnapshotFile(mk().(*urb.Majority).Snapshot())

	before := runtime.NumGoroutine()
	if nd, err := Recover(mk(), snapFailStore{store.NewMem()}, mesh.Endpoint(0),
		WithAdmission(admit.Config{})); err == nil || nd != nil {
		t.Fatalf("Recover over a failing store = %v, %v; want no node and an error", nd, err)
	}
	if nd, err := Join(context.Background(), mk(), snapFailStore{store.NewMem()}, mesh.Endpoint(1),
		WithAdmission(admit.Config{}), WithJoinFrom(container)); err == nil || nd != nil {
		t.Fatalf("Join over a failing store = %v, %v; want no node and an error", nd, err)
	}
	// The leak check of the transport conformance suite.
	var after int
	for i := 0; i < 50; i++ {
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked by the failed Recover and Join: %d before, %d after", before, after)
}

// TestRecoverAndJoinCopyTheirOptions: both append internal options to
// the caller's; handed a prefix opts[:k] of a longer slice they must not
// write into its spare capacity.
func TestRecoverAndJoinCopyTheirOptions(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    2,
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: time.Millisecond,
		Seed: 7,
	})
	defer mesh.Close()
	mk := func() urb.Process { return urb.NewMajority(1, ident.NewSource(xrand.New(5)), urb.Config{}) }
	container := store.EncodeSnapshotFile(mk().(*urb.Majority).Snapshot())

	tailRan := 0
	tail := func(*options) { tailRan++ }
	opts := []Option{WithTickEvery(time.Millisecond), WithJoinFrom(container), tail, tail}
	build := map[string]func(opts ...Option) (*Node, error){
		"Recover": func(opts ...Option) (*Node, error) {
			return Recover(mk(), store.NewMem(), mesh.Endpoint(0), opts...)
		},
		"Join": func(opts ...Option) (*Node, error) {
			return Join(context.Background(), mk(), store.NewMem(), mesh.Endpoint(1), opts...)
		},
	}
	for name, f := range build {
		nd, err := f(opts[:2]...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nd.Stop()
		tailRan = 0
		for _, o := range opts[2:] {
			o(&options{})
		}
		if tailRan != 2 {
			t.Fatalf("%s overwrote the caller's options beyond the prefix it was given", name)
		}
	}
}

// TestNodeStoreErrorStopsNode: a node whose store fails stops before it
// exposes anything of the Step that failed to persist (exposed implies
// durable), surfaces the error, closes Deliveries, and refuses further
// broadcasts.
func TestNodeStoreErrorStopsNode(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    1,
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: time.Millisecond,
		Seed: 9,
	})
	defer mesh.Close()
	st := store.NewMem()
	st.Close() // every write will fail

	nd := New(urb.NewMajority(1, ident.NewSource(xrand.New(3)), urb.Config{}),
		mesh.Endpoint(0), WithStore(st), WithTickEvery(time.Millisecond))
	inbox := nd.Deliveries()
	if err := nd.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	if _, err := nd.Broadcast([]byte("never-durable")); err != nil {
		t.Fatal(err)
	}
	timeout := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case d, ok := <-inbox:
			if ok {
				t.Fatalf("node exposed %v, which its store never persisted", d.ID)
			}
			open = false
		case <-timeout:
			t.Fatal("Deliveries did not close after the store failed")
		}
	}
	if nd.StoreStats().Err == nil {
		t.Fatal("store failure not surfaced")
	}
	if _, err := nd.Broadcast([]byte("after")); err != ErrNotRunning {
		t.Fatalf("broadcast after fail-stop: %v, want ErrNotRunning", err)
	}
}

// TestNodeStoreErrorBroadcastAccepted: a Broadcast the process accepted
// returns its identity even when absorbing it fails the store and stops
// the node, so the loop closes done right behind the caller's reply.
// The window is forced open: the action queue is full when Broadcast
// queues its action, so on one P the caller waits there while the node
// goroutine runs the queued actions, Broadcast's own and the shutdown it
// causes. The caller reaches its select with reply and done both closed,
// and a select that does not prefer reply picks done about half the
// time.
func TestNodeStoreErrorBroadcastAccepted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 100; i++ {
		mesh := transport.NewMesh(transport.MeshConfig{
			N:    1,
			Link: channel.Reliable{D: channel.FixedDelay(0)},
			Unit: time.Millisecond,
			Seed: uint64(i),
		})
		st := store.NewMem()
		st.Close() // every write will fail
		nd := New(urb.NewMajority(1, ident.NewSource(xrand.New(uint64(i))), urb.Config{}),
			mesh.Endpoint(0), WithStore(st), WithTickEvery(time.Hour))
		for len(nd.actions) < cap(nd.actions) {
			nd.actions <- func(urb.Process) bool { return true }
		}
		if err := nd.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, err := nd.Broadcast([]byte("accepted"))
		nd.Stop()
		mesh.Close()
		if err != nil {
			t.Fatalf("run %d: Broadcast of an accepted message: %v", i, err)
		}
	}
}

// TestNewPanicsOnNonDurableStore: WithStore demands a urb.Durable
// process at construction, not at the first failed checkpoint.
func TestNewPanicsOnNonDurableStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted WithStore for a non-durable process")
		}
	}()
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    1,
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: time.Millisecond,
	})
	defer mesh.Close()
	New(nonDurable{}, mesh.Endpoint(0), WithStore(store.NewMem()))
}

// TestNewRefusesPopulatedStore: a store that already holds durable
// state means this is a restart, and a restart through New (instead of
// Recover) would re-pin acked messages under fresh tags and interleave
// two incarnations' WAL records. New must refuse loudly.
func TestNewRefusesPopulatedStore(t *testing.T) {
	st := store.NewMem()
	if err := st.AppendWAL([]byte("previous incarnation")); err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    1,
		Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: time.Millisecond,
	})
	defer mesh.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted WithStore on a populated store")
		}
	}()
	New(urb.NewMajority(1, ident.NewSource(xrand.New(1)), urb.Config{}),
		mesh.Endpoint(0), WithStore(st))
}

// nonDurable is a Process without the Durable surface.
type nonDurable struct{}

func (nonDurable) Broadcast(body []byte) (wire.MsgID, urb.Step) { return wire.MsgID{}, urb.Step{} }
func (nonDurable) Receive(wire.Message) urb.Step                { return urb.Step{} }
func (nonDurable) Tick() urb.Step                               { return urb.Step{} }
func (nonDurable) Stats() urb.Stats                             { return urb.Stats{} }
