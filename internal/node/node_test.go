package node_test

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/host"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// startMajorityCluster launches n majority-URB nodes on a lossy mesh and
// returns them with their delivery channels (subscribed before Start).
func startMajorityCluster(t *testing.T, ctx context.Context, n int, opts ...node.Option) ([]*node.Node, []<-chan node.Delivery, *transport.Mesh) {
	t.Helper()
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    n,
		Link: channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 0, Max: 3}},
		Unit: 100 * time.Microsecond,
		Seed: 21,
	})
	tagRoot := xrand.SplitLabeled(33, "node-test-tags")
	nodes := make([]*node.Node, n)
	inboxes := make([]<-chan node.Delivery, n)
	for i := range nodes {
		proc := urb.NewMajority(n, ident.NewSource(tagRoot.Split()), urb.Config{})
		all := append([]node.Option{
			node.WithTickEvery(time.Millisecond),
			node.WithSeed(uint64(i)),
		}, opts...)
		nodes[i] = node.New(proc, mesh.Endpoint(i), all...)
		inboxes[i] = nodes[i].Deliveries()
	}
	for _, nd := range nodes {
		if err := nd.Start(ctx); err != nil {
			t.Fatalf("start: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		mesh.Close()
	})
	return nodes, inboxes, mesh
}

func TestNodeURBDeliversEverywhere(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const n = 4
	nodes, inboxes, _ := startMajorityCluster(t, ctx, n)

	// Binary payload: the node path must carry arbitrary bytes.
	body := []byte{0x00, 0xff, 0x80, 'u', 'r', 'b'}
	id, err := nodes[1].Broadcast(body)
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for i, inbox := range inboxes {
		select {
		case d := <-inbox:
			if d.ID != id {
				t.Fatalf("node %d delivered %s, want %s", i, d.ID, id)
			}
			if !bytes.Equal(d.Body(), body) {
				t.Fatalf("node %d payload mangled: %x", i, d.Body())
			}
		case <-ctx.Done():
			t.Fatalf("node %d never delivered", i)
		}
	}
}

func TestNodeLifecycle(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond,
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(1)), urb.Config{}),
		mesh.Endpoint(0), node.WithTickEvery(time.Millisecond))

	// Not started yet: operations refuse.
	if _, err := nd.Broadcast([]byte("x")); err != node.ErrNotRunning {
		t.Fatalf("broadcast before start: %v", err)
	}
	if _, err := nd.Stats(); err != node.ErrNotRunning {
		t.Fatalf("stats before start: %v", err)
	}

	ctx := context.Background()
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := nd.Start(ctx); err != node.ErrAlreadyStarted {
		t.Fatalf("second start: %v", err)
	}
	if _, err := nd.Broadcast([]byte("y")); err != nil {
		t.Fatalf("broadcast while running: %v", err)
	}
	if _, err := nd.Broadcast(make([]byte, wire.MaxBody+1)); err != node.ErrBodyTooLarge {
		t.Fatalf("oversized broadcast: %v", err)
	}
	if st, err := nd.Stats(); err != nil || st.MsgSet != 1 {
		t.Fatalf("stats while running: %+v %v", st, err)
	}

	if err := nd.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := nd.Stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if _, err := nd.Broadcast([]byte("z")); err != node.ErrNotRunning {
		t.Fatalf("broadcast after stop: %v", err)
	}
	if err := nd.Start(ctx); err == nil {
		t.Fatal("restart after stop must fail")
	}
}

func TestNodeStopBeforeStart(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(1)), urb.Config{}),
		mesh.Endpoint(0))
	ch := nd.Deliveries()
	if err := nd.Stop(); err != nil {
		t.Fatalf("stop before start: %v", err)
	}
	if _, ok := <-ch; ok {
		t.Fatal("deliveries channel must be closed")
	}
}

func TestNodeContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodes, inboxes, _ := startMajorityCluster(t, ctx, 2)
	cancel()
	// The delivery channels close once the loops exit.
	for i, inbox := range inboxes {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case _, ok := <-inbox:
				if !ok {
					goto next
				}
			case <-deadline:
				t.Fatalf("node %d delivery channel did not close on ctx cancel", i)
			}
		}
	next:
		_ = i
	}
	if _, err := nodes[0].Broadcast([]byte("late")); err != node.ErrNotRunning {
		t.Fatalf("broadcast after cancel: %v", err)
	}
}

// recorder is a test Observer counting deliveries.
type recorder struct {
	mu       sync.Mutex
	delivers int
}

func (r *recorder) OnDeliver(node.Delivery) { r.mu.Lock(); r.delivers++; r.mu.Unlock() }

func (r *recorder) delivered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delivers
}

// TestNodeObserverAndQuiescence runs the quiescent algorithm (with an
// exact oracle) on nodes and checks that the observer sees every
// delivery, that the node counts sends and receptions, MSG and ACK
// bytes, and that every node finally falls silent.
func TestNodeObserverAndQuiescence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 3
	correct := []bool{true, true, true}
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 3}, correct)

	mesh := transport.NewMesh(transport.MeshConfig{
		N:    n,
		Link: channel.Bernoulli{P: 0.1, D: channel.UniformDelay{Min: 0, Max: 2}},
		Unit: 100 * time.Microsecond,
		Seed: 5,
	})
	defer mesh.Close()

	recs := make([]*recorder, n)
	nodes := make([]*node.Node, n)
	tagRoot := xrand.SplitLabeled(44, "obs-tags")
	for i := range nodes {
		recs[i] = &recorder{}
		proc := urb.NewQuiescent(oracle.Handle(i, mesh.ElapsedUnits),
			ident.NewSource(tagRoot.Split()), urb.Config{})
		nodes[i] = node.New(proc, mesh.Endpoint(i),
			node.WithTickEvery(time.Millisecond),
			node.WithSeed(uint64(i)),
			node.WithObserver(recs[i]),
		)
		if err := nodes[i].Start(ctx); err != nil {
			t.Fatalf("start: %v", err)
		}
		defer nodes[i].Stop()
	}

	if _, err := nodes[0].Broadcast([]byte("quiet")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}

	// Eventually: everyone delivered and every node fell silent.
	deadline := time.Now().Add(25 * time.Second)
	for {
		done := 0
		for i, r := range recs {
			if r.delivered() >= 1 && nodes[i].QuietFor(20*time.Millisecond) {
				done++
			}
		}
		if done == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never went quiescent: %d/%d", done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, nd := range nodes {
		if got := recs[i].delivered(); got != 1 {
			t.Fatalf("node %d observer saw %d deliveries, want 1", i, got)
		}
		sends, receives := nd.MessageStats()
		if sends == 0 || receives == 0 {
			t.Fatalf("node %d counted no traffic: sends=%d receives=%d", i, sends, receives)
		}
	}
	var msgB, ackB uint64
	for _, nd := range nodes {
		m, a, _, _, _ := nd.ByteStats()
		msgB += m
		ackB += a
	}
	if msgB == 0 || ackB == 0 {
		t.Fatalf("nodes missed a wire class: msg=%dB ack=%dB", msgB, ackB)
	}
}

// TestNodeGarbledFramesDropped: a transport that corrupts frames cannot
// crash a node — undecodable frames count as channel loss.
func TestNodeGarbledFramesDropped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: 100 * time.Microsecond,
	})
	defer mesh.Close()
	garbler := &garblingTransport{Transport: mesh.Endpoint(0)}
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(9)), urb.Config{}),
		garbler, node.WithTickEvery(time.Millisecond))
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer nd.Stop()

	if _, err := nd.Broadcast([]byte("garble-me")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	deadline := time.Now().Add(8 * time.Second)
	for {
		_, _, bad := nd.FrameStats()
		if bad > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("garbled frames never reached the node")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// garblingTransport flips a byte in every outbound frame.
type garblingTransport struct {
	transport.Transport
}

func (g *garblingTransport) Send(frame []byte) {
	bad := append([]byte(nil), frame...)
	if len(bad) > 0 {
		bad[0] ^= 0xff
	}
	g.Transport.Send(bad)
}

// canonicalTransport checks every frame it sends: the frame must be,
// byte for byte, the concatenated Encode of the messages
// wire.DecodePrefix splits from it (host.Messages).
type canonicalTransport struct {
	transport.Transport
	frames, bad atomic.Int64
}

func (c *canonicalTransport) Send(frame []byte) {
	c.frames.Add(1)
	var again []byte
	for m := range host.Messages(frame) {
		again = m.Encode(again)
	}
	if !bytes.Equal(again, frame) {
		c.bad.Add(1)
	}
	c.Transport.Send(frame)
}

// TestNodeBatchingCoalescesFrames: with several messages in MSG_i, a
// node's Task-1 tick sends fewer frames than messages, every frame is
// the canonical encodings of its messages back to back, and the
// receiving side splits batches back into individual messages. (One
// frame per message when unbatched is host.TestLoopPacking's; every sim
// run packs that way.)
func TestNodeBatchingCoalescesFrames(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: 100 * time.Microsecond, Seed: 3,
	})
	tr := &canonicalTransport{Transport: mesh.Endpoint(0)}
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(4)), urb.Config{}),
		tr, node.WithTickEvery(time.Millisecond))
	inbox := nd.Deliveries()
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { nd.Stop(); mesh.Close() }()

	const k = 8
	for i := 0; i < k; i++ {
		if _, err := nd.Broadcast([]byte{byte(i), 0xff, 0x00}); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	for i := 0; i < k; i++ {
		select {
		case <-inbox:
		case <-ctx.Done():
			t.Fatalf("only %d/%d self-deliveries", i, k)
		}
	}
	// Let several full ticks of steady-state retransmission run.
	time.Sleep(30 * time.Millisecond)
	nd.Stop()

	sentFrames, recvFrames, _ := nd.FrameStats()
	sentMsgs, recvMsgs := nd.MessageStats()
	if sentMsgs == 0 || recvMsgs == 0 {
		t.Fatal("no traffic recorded")
	}
	// Steady-state ticks carry k MSGs plus ACK replies per inbound
	// batch; frames must be well below messages.
	if sentFrames*2 > sentMsgs {
		t.Fatalf("batching ineffective: %d frames for %d messages", sentFrames, sentMsgs)
	}
	if recvMsgs <= recvFrames {
		t.Fatalf("receive side never split a batch: %d msgs from %d frames", recvMsgs, recvFrames)
	}
	if bad, frames := tr.bad.Load(), tr.frames.Load(); bad != 0 || frames != int64(sentFrames) {
		t.Fatalf("%d of %d sent frames are not their messages' encodings (the node counted %d)", bad, frames, sentFrames)
	}
}

// TestNodeBatchRespectsFrameBudget: batch frames never exceed the
// transport's budget, verified against a mesh with a tiny budget via an
// inspecting transport wrapper.
func TestNodeBatchRespectsFrameBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const budget = 96
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: 100 * time.Microsecond, FrameBudget: budget,
	})
	insp := &inspectingTransport{Transport: mesh.Endpoint(0)}
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(11)), urb.Config{}),
		insp, node.WithTickEvery(time.Millisecond))
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { nd.Stop(); mesh.Close() }()

	for i := 0; i < 10; i++ {
		if _, err := nd.Broadcast([]byte("budget-test-payload")); err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	nd.Stop()

	frames, maxLen, batchedFrames := insp.snapshot()
	if frames == 0 {
		t.Fatal("no frames sent")
	}
	if maxLen > budget {
		t.Fatalf("a frame of %dB exceeded the %dB budget", maxLen, budget)
	}
	if batchedFrames == 0 {
		t.Fatal("no multi-message frames under a budget that fits several messages")
	}
}

// inspectingTransport records the size of every sent frame.
type inspectingTransport struct {
	transport.Transport
	mu      sync.Mutex
	frames  int
	maxLen  int
	batched int // frames carrying more than one message
}

func (it *inspectingTransport) Send(frame []byte) {
	it.mu.Lock()
	it.frames++
	if len(frame) > it.maxLen {
		it.maxLen = len(frame)
	}
	if ms, err := wire.DecodeBatch(frame); err == nil && len(ms) > 1 {
		it.batched++
	}
	it.mu.Unlock()
	it.Transport.Send(frame)
}

func (it *inspectingTransport) snapshot() (frames, maxLen, batched int) {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.frames, it.maxLen, it.batched
}

// TestNodeStatsAfterStop: Stats keeps answering after Stop with the
// final algorithm snapshot (post-run accounting), and still refuses
// before Start.
func TestNodeStatsAfterStop(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond,
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(2)), urb.Config{}),
		mesh.Endpoint(0), node.WithTickEvery(time.Millisecond))

	if _, err := nd.Stats(); err != node.ErrNotRunning {
		t.Fatalf("stats before start: %v, want ErrNotRunning", err)
	}
	if err := nd.Start(context.Background()); err != nil {
		t.Fatalf("start: %v", err)
	}
	if _, err := nd.Broadcast([]byte("final")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := nd.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	st, err := nd.Stats()
	if err != nil {
		t.Fatalf("stats after stop: %v", err)
	}
	if st.MsgSet != 1 {
		t.Fatalf("final stats lost the broadcast: %+v", st)
	}
}

// TestNodeStatsAfterStopNeverStarted: a stopped-but-never-started node
// reports its (empty) initial stats rather than erroring forever.
func TestNodeStatsAfterStopNeverStarted(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(2)), urb.Config{}),
		mesh.Endpoint(0))
	if err := nd.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	st, err := nd.Stats()
	if err != nil {
		t.Fatalf("stats after stop-before-start: %v", err)
	}
	if st.MsgSet != 0 || st.Delivered != 0 {
		t.Fatalf("unexpected non-zero stats: %+v", st)
	}
}

// TestNodeQuietForBothTransports: Node.QuietFor is false until the
// node's first send, then eventually true once sends stop — over both
// the mesh and real UDP sockets (Mesh.QuietFor shares the semantics;
// see the transport package's TestMeshQuietForSemantics).
func TestNodeQuietForBothTransports(t *testing.T) {
	cases := []struct {
		name string
		make func(t *testing.T) (transport.Transport, func())
	}{
		{"mesh", func(t *testing.T) (transport.Transport, func()) {
			m := transport.NewMesh(transport.MeshConfig{
				N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond,
			})
			return m.Endpoint(0), func() { m.Close() }
		}},
		{"udp", func(t *testing.T) (transport.Transport, func()) {
			group, err := transport.UDPGroup(1, 0)
			if err != nil {
				t.Fatalf("udp group: %v", err)
			}
			return group[0], func() { group[0].Close() }
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			tr, cleanup := tc.make(t)
			defer cleanup()
			// An empty Majority process never sends on its own: ticks
			// retransmit an empty MSG set.
			nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(5)), urb.Config{}),
				tr, node.WithTickEvery(time.Millisecond))
			if err := nd.Start(ctx); err != nil {
				t.Fatalf("start: %v", err)
			}
			defer nd.Stop()

			time.Sleep(10 * time.Millisecond) // several empty ticks
			if nd.QuietFor(time.Millisecond) {
				t.Fatal("QuietFor true before the first send")
			}
			if _, err := nd.Broadcast([]byte("wake")); err != nil {
				t.Fatalf("broadcast: %v", err)
			}
			// Majority retransmits forever, so silence only follows Stop;
			// lastSend keeps answering on a stopped node.
			time.Sleep(5 * time.Millisecond)
			nd.Stop()
			if nd.QuietFor(time.Hour) {
				t.Fatal("QuietFor(1h) true right after sends")
			}
			deadline := time.Now().Add(10 * time.Second)
			for !nd.QuietFor(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("QuietFor never became true after the node stopped sending")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
