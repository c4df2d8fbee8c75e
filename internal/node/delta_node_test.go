package node_test

// End-to-end checks for the delta-ACK pipeline at the node layer: a
// quiescent cluster acknowledging incrementally still URB-delivers
// everywhere and falls silent, the per-class byte split accounts for
// every wire byte, and inbox-overflow counting is reachable through the
// node.

import (
	"context"
	"sync"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// sendAudit decodes every frame the transports it wraps send, with
// wire.DecodePrefix, independently of the node's own byte counters.
type sendAudit struct {
	mu    sync.Mutex
	msgs  map[wire.Kind]uint64
	bytes map[wire.Kind]uint64
	total uint64
	bad   int
}

func newSendAudit() *sendAudit {
	return &sendAudit{msgs: make(map[wire.Kind]uint64), bytes: make(map[wire.Kind]uint64)}
}

// auditedTransport feeds every frame it sends to its audit first.
type auditedTransport struct {
	transport.Transport
	a *sendAudit
}

func (t auditedTransport) Send(frame []byte) {
	t.a.mu.Lock()
	t.a.total += uint64(len(frame))
	for rest := frame; len(rest) > 0; {
		m, next, err := wire.DecodePrefix(rest)
		if err != nil {
			t.a.bad++
			break
		}
		t.a.msgs[m.Kind]++
		t.a.bytes[m.Kind] += uint64(len(rest) - len(next))
		rest = next
	}
	t.a.mu.Unlock()
	t.Transport.Send(frame)
}

// startQuiescentCluster launches n quiescent-URB nodes (delta ACKs per
// cfg) on a mesh with the given link model. With a non-nil audit every
// node's sends pass through it.
func startQuiescentCluster(t *testing.T, ctx context.Context, n int, cfg urb.Config, link channel.LinkModel, audit *sendAudit) ([]*node.Node, []<-chan node.Delivery, *transport.Mesh) {
	t.Helper()
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    n,
		Link: link,
		Unit: 100 * time.Microsecond,
		Seed: 77,
	})
	correct := make([]bool, n)
	for i := range correct {
		correct[i] = true
	}
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 7}, correct)
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start) / time.Millisecond) }
	tagRoot := xrand.SplitLabeled(44, "delta-node-tags")
	nodes := make([]*node.Node, n)
	inboxes := make([]<-chan node.Delivery, n)
	for i := range nodes {
		proc := urb.NewQuiescent(oracle.Handle(i, clock), ident.NewSource(tagRoot.Split()), cfg)
		var tr transport.Transport = mesh.Endpoint(i)
		if audit != nil {
			tr = auditedTransport{Transport: tr, a: audit}
		}
		nodes[i] = node.New(proc, tr, node.WithTickEvery(2*time.Millisecond), node.WithSeed(uint64(i)))
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

func TestNodeDeltaAcksDeliverAndQuiesce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n, msgs = 4, 3
	audit := newSendAudit()
	nodes, inboxes, _ := startQuiescentCluster(t, ctx, n,
		urb.Config{DeltaAcks: true},
		channel.Bernoulli{P: 0.1, D: channel.UniformDelay{Min: 0, Max: 2}},
		audit)

	for i := 0; i < msgs; i++ {
		if _, err := nodes[i%n].Broadcast([]byte{byte('a' + i)}); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	for i, inbox := range inboxes {
		for k := 0; k < msgs; k++ {
			select {
			case <-inbox:
			case <-ctx.Done():
				t.Fatalf("node %d delivered %d/%d before timeout", i, k, msgs)
			}
		}
	}
	// The cluster must still reach quiescence with incremental ACKs.
	deadline := time.Now().Add(20 * time.Second)
	for {
		quiet := true
		for _, nd := range nodes {
			if !nd.QuietFor(50 * time.Millisecond) {
				quiet = false
				break
			}
		}
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never quiesced under delta ACKs")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Byte accounting: the per-node class split must cover every byte
	// the audit decoded from the wire, and the ACK slice must be delta
	// frames. The cluster is quiet, so the counters no longer move.
	var msgB, ackB, beatB, otherB uint64
	for _, nd := range nodes {
		m, a, b, s, o := nd.ByteStats()
		msgB += m
		ackB += a
		beatB += b
		otherB += s + o
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	if audit.bad != 0 {
		t.Fatalf("%d sent frames failed to decode", audit.bad)
	}
	var decoded, decodedAck uint64
	for k, b := range audit.bytes {
		decoded += b
		if k.IsAck() {
			decodedAck += b
		}
	}
	if decoded != audit.total {
		t.Fatalf("decoded messages cover %d of %d sent bytes", decoded, audit.total)
	}
	if msgB+ackB+beatB+otherB != decoded {
		t.Fatalf("byte split %d+%d+%d+%d != decoded total %d", msgB, ackB, beatB, otherB, decoded)
	}
	if ackB != decodedAck {
		t.Fatalf("node ack bytes %d != decoded ack bytes %d", ackB, decodedAck)
	}
	if msgB != audit.bytes[wire.KindMsg] {
		t.Fatalf("node msg bytes %d != decoded msg bytes %d", msgB, audit.bytes[wire.KindMsg])
	}
	if msgB == 0 || ackB == 0 {
		t.Fatalf("degenerate run: msgBytes=%d ackBytes=%d", msgB, ackB)
	}
	if audit.msgs[wire.KindAck] != 0 {
		t.Fatalf("delta-mode cluster sent %d full-set ACKs", audit.msgs[wire.KindAck])
	}
	if audit.msgs[wire.KindAckDelta] == 0 {
		t.Fatal("delta-mode cluster sent no delta ACKs")
	}
	if got := audit.bytes[wire.KindAckDelta] + audit.bytes[wire.KindAckReq]; got != decodedAck {
		t.Fatalf("bytes-by-kind ack slices %d != ack total %d", got, decodedAck)
	}
}

func TestNodeInboxOverflowsSurfaced(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N:          1,
		Link:       channel.Reliable{D: channel.FixedDelay(0)},
		Unit:       time.Millisecond,
		InboxDepth: 1,
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(1)), urb.Config{}), mesh.Endpoint(0))
	defer nd.Stop()
	// Saturate the un-started node's inbox (nothing drains it).
	for i := 0; i < 5; i++ {
		mesh.Endpoint(0).Send([]byte{byte(i)})
	}
	got, ok := nd.InboxOverflows()
	if !ok {
		t.Fatal("mesh-hosted node cannot report inbox overflows")
	}
	if want := uint64(4); got != want {
		t.Fatalf("overflows = %d, want %d", got, want)
	}
}
