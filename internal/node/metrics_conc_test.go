package node

import (
	"sync"
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// TestMetricsConcurrent hammers one shared collector from several
// goroutines — senders, receivers, broadcasters, deliverers and a
// snapshotter — under -race. It guards both the documented "one Metrics
// per cluster" sharing contract and the satellite-2 restructuring that
// moved histogram summarising outside the lock.
func TestMetricsConcurrent(t *testing.T) {
	c := NewMetrics()
	const (
		workers = 4
		iters   = 500
	)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := wire.MsgID{Tag: ident.Tag{Hi: uint64(w + 1), Lo: uint64(i)}, Body: "x"}
				m := wire.NewMsg(id)
				c.OnSend(m, m.Encode(nil))
				c.OnReceive(m)
				c.OnBroadcast(id, start)
				c.OnDeliver(Delivery{Delivery: urb.Delivery{ID: id}, At: start.Add(time.Duration(i) * time.Millisecond)})
				if i%100 == 0 {
					c.OnQuiescence(time.Millisecond)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = c.Snapshot()
			_ = c.Gauges()
		}
	}()
	wg.Wait()
	<-done

	s := c.Snapshot()
	if s.SentMsgs != workers*iters || s.RecvMsgs != workers*iters || s.Deliveries != workers*iters {
		t.Fatalf("lost events: sent=%d recv=%d delivered=%d, want %d each",
			s.SentMsgs, s.RecvMsgs, s.Deliveries, workers*iters)
	}
	if got := len(s.DeliveriesByFlow); got != workers {
		t.Fatalf("flows = %d, want %d", got, workers)
	}
}

// TestMetricsPerMessageLatency pins the satellite-1 fix: latency is
// measured from the message's own broadcast time, not from collector
// creation, whenever the broadcast was observed.
func TestMetricsPerMessageLatency(t *testing.T) {
	c := NewMetrics()
	// Make the fallback epoch obviously wrong: pretend the collector is
	// a minute old.
	c.start = time.Now().Add(-time.Minute)
	id := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 1}, Body: "m"}
	bcast := time.Now()
	c.OnBroadcast(id, bcast)
	c.OnDeliver(Delivery{Delivery: urb.Delivery{ID: id}, At: bcast.Add(25 * time.Millisecond)})
	if got := c.deliverLat.Max(); got != 25 {
		t.Fatalf("per-message latency = %dms, want 25 (fallback would be ~60000)", got)
	}

	// A delivery the collector never saw broadcast falls back to the
	// collector epoch (the documented pre-tracing behavior).
	other := wire.MsgID{Tag: ident.Tag{Hi: 2, Lo: 2}, Body: "m"}
	c.OnDeliver(Delivery{Delivery: urb.Delivery{ID: other}, At: c.start.Add(90 * time.Millisecond)})
	if got := c.deliverLat.Max(); got != 90 {
		t.Fatalf("fallback latency = %dms, want 90", got)
	}
}

// BenchmarkMetricsSnapshotContention measures OnSend throughput while a
// second goroutine snapshots a large collector in a loop — the
// satellite-2 guard that Snapshot's histogram sort happens outside the
// collector lock.
func BenchmarkMetricsSnapshotContention(b *testing.B) {
	c := NewMetrics()
	id := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 1}, Body: "payload"}
	m := wire.NewMsg(id)
	enc := m.Encode(nil)
	for i := 0; i < 1<<16; i++ {
		c.OnSend(m, enc)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Snapshot()
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnSend(m, enc)
	}
	b.StopTimer()
	close(stop)
	snapWG.Wait()
}
