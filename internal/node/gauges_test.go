package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/xrand"
)

// accessorGauges reads every accessor of n and names each value by the
// gauge Gauges must serve it under.
func accessorGauges(t *testing.T, n *Node) map[string]float64 {
	t.Helper()
	sf, rf, bad := n.FrameStats()
	sm, rm := n.MessageStats()
	msg, ack, beat, snap, other := n.ByteStats()
	st := n.StoreStats()
	recSnap, recWAL := n.RecoveryStats()
	want := map[string]float64{
		"urb_sent_frames_total":        float64(sf),
		"urb_recv_frames_total":        float64(rf),
		"urb_bad_frames_total":         float64(bad),
		"urb_sent_msgs_total":          float64(sm),
		"urb_recv_msgs_total":          float64(rm),
		"urb_sent_bytes_total":         float64(msg + ack + beat + snap + other),
		"urb_sent_msg_bytes_total":     float64(msg),
		"urb_sent_ack_bytes_total":     float64(ack),
		"urb_sent_beat_bytes_total":    float64(beat),
		"urb_sent_snap_bytes_total":    float64(snap),
		"urb_sent_other_bytes_total":   float64(other),
		"urb_checkpoints_total":        float64(st.Checkpoints),
		"urb_checkpoint_bytes_total":   float64(st.CheckpointBytes),
		"urb_wal_appends_total":        float64(st.WALAppends),
		"urb_wal_bytes_total":          float64(st.WALBytes),
		"urb_store_failed":             0,
		"urb_recovered_snapshot_bytes": float64(recSnap),
		"urb_recovered_wal_records":    float64(recWAL),
		"urb_joined_bytes":             float64(n.JoinedBytes()),
	}
	if st.Err != nil {
		want["urb_store_failed"] = 1
	}
	if o, ok := n.InboxOverflows(); ok {
		want["urb_inbox_overflows_total"] = float64(o)
	} else {
		t.Fatal("a mesh-hosted node cannot count inbox overflows")
	}
	a, ok := n.AdmitStats()
	if !ok {
		t.Fatal("a node built WithAdmission has no admission stats")
	}
	for name, v := range map[string]uint64{
		"admitted_msgs": a.AdmittedMsgs, "admitted_bytes": a.AdmittedBytes,
		"demoted_msgs": a.DemotedMsgs, "demoted_bytes": a.DemotedBytes,
		"high_drops": a.HighDrops, "low_drops": a.LowDrops,
		"split_frames": a.SplitFrames, "demotions": a.Demotions, "evictions": a.Evictions,
	} {
		want["urb_admit_"+name+"_total"] = float64(v)
	}
	s, err := n.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for name, v := range map[string]int{
		"urb_msg_set": s.MsgSet, "urb_my_acks": s.MyAcks, "urb_ack_entries": s.AckEntries,
		"urb_deliveries_total": s.Delivered, "urb_retired_total": s.Retired,
		"urb_ack_labels": s.AckLabels, "urb_ack_label_storage": s.AckLabelStorage,
		"urb_compacted_msgs": s.CompactedMsgs,
	} {
		want[name] = float64(v)
	}
	want["urb_wire_sent_total"] = float64(s.WireSent)
	return want
}

// checkGauges holds n.Gauges to the accessors: the same names and the
// same values. The accessors are read before and after Gauges, and the
// comparison is taken once both reads agree.
func checkGauges(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := accessorGauges(t, n)
		got := n.Gauges()
		if after := accessorGauges(t, n); fmt.Sprint(before) != fmt.Sprint(after) {
			if time.Now().After(deadline) {
				t.Fatal("the node's counters never held still")
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if len(got) != len(before) {
			t.Fatalf("Gauges has %d entries, the accessors %d:\n%v\n%v", len(got), len(before), got, before)
		}
		for name, v := range before {
			if g, ok := got[name]; !ok || g != v {
				t.Fatalf("gauge %s = %v (present %v), accessor reads %v", name, g, ok, v)
			}
		}
		return
	}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNodeGauges: on a durable node built WithAdmission and recovered
// from its store, every accessor value appears under its gauge, while
// the node runs and after it stopped; the encode-cache counters, which
// would always read 0, do not.
func TestNodeGauges(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond})
	defer mesh.Close()
	oracle := fd.NewOracle(fd.OracleConfig{N: 1, Noise: fd.NoiseExact, Seed: 1}, []bool{true})
	mkProc := func() urb.Process {
		return urb.NewQuiescent(oracle.Handle(0, mesh.ElapsedUnits), ident.NewSource(xrand.New(7)), urb.Config{})
	}
	st := store.NewMem()
	opts := []Option{WithTickEvery(time.Millisecond), WithCheckpointEvery(2 * time.Millisecond), WithAdmission(admit.Config{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	first := New(mkProc(), mesh.Endpoint(0), append(opts, WithStore(st))...)
	in := first.Deliveries()
	if err := first.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Broadcast([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, in, 1, 5*time.Second); len(got) != 1 {
		t.Fatalf("first incarnation delivered %v", got)
	}
	waitUntil(t, func() bool { return first.StoreStats().Checkpoints > 0 })
	first.Stop()

	nd, err := Recover(mkProc(), st, mesh.Reopen(0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	in = nd.Deliveries()
	if err := nd.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	if _, err := nd.Broadcast([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, in, 1, 5*time.Second); len(got) != 1 {
		t.Fatalf("recovered node delivered %v", got)
	}
	waitUntil(t, func() bool { return nd.QuietFor(20 * time.Millisecond) })
	checkGauges(t, nd)
	g := nd.Gauges()
	for _, name := range []string{"urb_encode_cache_hits_total", "urb_encode_cache_misses_total"} {
		if _, ok := g[name]; ok {
			t.Fatalf("Gauges serves %s, a node without an encode cache", name)
		}
	}
	for _, name := range []string{"urb_sent_msgs_total", "urb_recv_msgs_total", "urb_wal_appends_total",
		"urb_checkpoints_total", "urb_recovered_snapshot_bytes", "urb_admit_admitted_msgs_total", "urb_deliveries_total"} {
		if g[name] == 0 {
			t.Fatalf("gauge %s reads 0 on a node that used it: %v", name, g)
		}
	}

	nd.Stop()
	checkGauges(t, nd)
	if got := nd.Gauges()["urb_deliveries_total"]; got != 2 {
		t.Fatalf("stopped node's urb_deliveries_total = %v, want 2", got)
	}
}

// TestNodeGaugesDuringStop: scrapes racing Stop read either the running
// node or its final snapshot, and never block.
func TestNodeGaugesDuringStop(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{N: 2, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond})
	defer mesh.Close()
	nodes := make([]*Node, 2)
	for i := range nodes {
		proc := urb.NewMajority(2, ident.NewSource(xrand.New(uint64(i+1))), urb.Config{})
		nodes[i] = New(proc, mesh.Endpoint(i), WithTickEvery(time.Millisecond), WithSeed(uint64(i)),
			WithStore(store.NewMem()), WithAdmission(admit.Config{}))
		if err := nodes[i].Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Stop()
	}
	if _, err := nodes[0].Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var scrapes atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g := LabeledGauges(nodes); len(g) == 0 {
					t.Error("a scrape returned no gauges")
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	// Stop while the scrapers run, and let them scrape the stopped nodes
	// too before they are told to finish.
	waitUntil(t, func() bool { return scrapes.Load() >= 8 })
	for _, nd := range nodes {
		nd.Stop()
	}
	stopped := scrapes.Load()
	waitUntil(t, func() bool { return scrapes.Load() >= stopped+8 })
	close(stop)
	wg.Wait()
	for i, nd := range nodes {
		s, err := nd.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got := nd.Gauges()["urb_deliveries_total"]; got != float64(s.Delivered) {
			t.Fatalf("node %d: stopped urb_deliveries_total = %v, final stats %d", i, got, s.Delivered)
		}
	}
}
