package node

import (
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// TestMetricsDeliveriesByFlow: the collector splits its delivery count
// by broadcaster flow (wire.FlowOf of the delivered tag), so a skewed
// delivery distribution is visible straight from a Snapshot.
func TestMetricsDeliveriesByFlow(t *testing.T) {
	m := NewMetrics()
	deliver := func(flow, lo uint64, fast bool) {
		m.OnDeliver(Delivery{
			Delivery: urb.Delivery{ID: wire.MsgID{Tag: ident.Tag{Hi: flow, Lo: lo}, Body: "x"}, Fast: fast},
			At:       time.Now(),
		})
	}
	// Flow 0xAA broadcasts three times, flow 0xBB once; with pinned
	// sources Lo varies per message while Hi carries the flow.
	deliver(0xAA, 1, false)
	deliver(0xAA, 2, true)
	deliver(0xAA, 3, false)
	deliver(0xBB, 9, false)

	s := m.Snapshot()
	if s.Deliveries != 4 || s.Fast != 1 {
		t.Fatalf("deliveries=%d fast=%d, want 4/1", s.Deliveries, s.Fast)
	}
	if len(s.DeliveriesByFlow) != 2 {
		t.Fatalf("flows %v, want exactly {0xAA, 0xBB}", s.DeliveriesByFlow)
	}
	if s.DeliveriesByFlow[0xAA] != 3 || s.DeliveriesByFlow[0xBB] != 1 {
		t.Fatalf("per-flow counts %v, want 0xAA:3 0xBB:1", s.DeliveriesByFlow)
	}

	// The snapshot is a copy: mutating it must not leak back into the
	// collector.
	s.DeliveriesByFlow[0xAA] = 999
	if got := m.Snapshot().DeliveriesByFlow[0xAA]; got != 3 {
		t.Fatalf("snapshot aliases collector state: %d", got)
	}
}

// TestMetricsFlowOfUnpinnedTags: without flow pinning every tag draws a
// fresh Hi, so each delivery lands under its own flow key — the
// anonymity-preserving default.
func TestMetricsFlowOfUnpinnedTags(t *testing.T) {
	m := NewMetrics()
	for i := uint64(1); i <= 5; i++ {
		m.OnDeliver(Delivery{
			Delivery: urb.Delivery{ID: wire.MsgID{Tag: ident.Tag{Hi: i * 31, Lo: i}, Body: "y"}},
			At:       time.Now(),
		})
	}
	if got := len(m.Snapshot().DeliveriesByFlow); got != 5 {
		t.Fatalf("unpinned tags collapsed into %d flows, want 5", got)
	}
}
