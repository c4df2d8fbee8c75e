// Package admit implements a flow-fairness admission stage in front of
// a node's inbox: a per-broadcaster heavy-hitter detector that demotes
// flows exceeding their fair share to a droppable low-priority lane
// before they can evict other broadcasters' MSG/ACK frames.
//
// The paper's fair lossy channel constrains the *channel* — infinitely
// many sends imply infinitely many receptions — but says nothing about
// a fair *sender*: one hot broadcaster's MSG/ACK retransmissions can
// legally saturate every finite inbox and starve the other broadcasters'
// deliveries (liverun's TestFairAdmission flood checks exactly this). The
// admission stage restores per-broadcaster fairness without touching the
// algorithms: it classifies inbound traffic by flow (the broadcast tag's
// Hi half — see ident.NewFlowSource and wire.FlowOf), meters each flow
// with an EARDet-style leaky bucket, and routes each message to a
// high-priority (admitted) or low-priority (demoted, droppable) lane.
// Everything URB absorbs still arrived over the transport; admission
// only drops or reorders *before* the algorithm sees a message, which a
// fair lossy channel was always allowed to do — so the paper's
// properties D1–D5 are untouched (see DESIGN.md §11).
//
// The detector is modeled on the EARDet family (exact-outside-an-
// ambiguity-region detection with leaky buckets): a fixed-size,
// zero-allocation bucket table charged on the ingest hot path, with
// damage-style accounting (deliveries lost with vs without admission,
// false demotions) gated by liverun's TestFairAdmission.
package admit

import (
	"sync/atomic"
	"time"
)

// Config parameterises an admission stage.
type Config struct {
	// Rate is the per-flow fair share in bytes/second: the leak rate γ
	// of every flow's bucket. A flow arriving faster than Rate for long
	// enough to fill Burst is demoted. Zero selects a conservative
	// default (4 MB/s).
	Rate float64
	// Burst is the bucket depth β in bytes: how far a flow may exceed
	// its fair share before demotion. Together with Rate it sets the
	// detector's ambiguity region, exactly as in EARDet: flows below
	// Rate are never demoted, flows above Rate+Burst/window always are.
	// Zero selects 64 KB.
	Burst int
	// Penalty is how long a flow stays demoted after its bucket last
	// tripped. Zero selects 250ms.
	Penalty time.Duration
	// HighDepth and LowDepth are the lane capacities in frames (zero:
	// 512 and 128). The high lane carries admitted traffic and should
	// not drop in a healthy system; the low lane carries demoted traffic
	// and dropping from it is the intended shedding.
	HighDepth int
	LowDepth  int
	// Flows bounds the tracked-flow table (zero: 512 entries). The
	// table is fixed-size and allocation-free; when full, the probe
	// window's smallest bucket is evicted — an attacker spraying flows
	// can reset small buckets, but every flow large enough to matter is
	// by definition hard to evict.
	Flows int
	// FIFO disables the detector: every frame passes to the high lane
	// in arrival order. The stage still imposes its lane buffering, so
	// a FIFO stage is the exact measurement baseline for a fair one —
	// same pipeline, same buffer budget, detection off.
	FIFO bool
	// OnDemote, when non-nil, is called with the flow id on every
	// admitted→demoted transition (the same transitions Stats counts as
	// Demotions). It is an observability hook — it must not block: it
	// runs on the stage's ingest goroutine, on the hot path.
	OnDemote func(flow uint64)
}

// WithDefaults returns c with zero fields filled in with the package
// defaults. Wrap applies it implicitly; it is exported so callers that
// derive one configuration from another (e.g. a FIFO baseline with the
// same total lane budget as a fair stage) can resolve defaults first.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 4 << 20
	}
	if c.Burst <= 0 {
		c.Burst = 64 << 10
	}
	if c.Penalty <= 0 {
		c.Penalty = 250 * time.Millisecond
	}
	if c.HighDepth <= 0 {
		c.HighDepth = 512
	}
	if c.LowDepth <= 0 {
		c.LowDepth = 128
	}
	if c.Flows <= 0 {
		c.Flows = 512
	}
	return c
}

// probeWindow is how many slots a flow may occupy past its home slot.
const probeWindow = 8

// bucket is one flow's leaky bucket.
type bucket struct {
	flow         uint64
	level        float64 // bytes currently in the bucket
	last         int64   // nanos of the last charge
	demotedUntil int64   // nanos; flow is demoted while now < demotedUntil
}

// detector is the leaky-bucket heavy-hitter table. The buckets are
// confined to the stage's ingest goroutine — no locks, no allocation
// after New; only the two counters are atomic so Stats can read them
// from outside.
type detector struct {
	cfg     Config
	buckets []bucket
	mask    uint64

	demotions atomic.Uint64 // admitted→demoted transitions
	evictions atomic.Uint64 // table-full bucket replacements
}

func newDetector(cfg Config) *detector {
	size := 1
	for size < cfg.Flows {
		size <<= 1
	}
	return &detector{cfg: cfg, buckets: make([]bucket, size), mask: uint64(size - 1)}
}

// slot finds or creates the bucket for flow, evicting the smallest
// bucket in the probe window when every slot is taken. Currently-demoted
// buckets are never evicted: forgetting an active heavy hitter would
// grant it a fresh ambiguity region.
func (d *detector) slot(flow uint64, now int64) *bucket {
	home := (flow * 0x9e3779b97f4a7c15) & d.mask
	var victim *bucket
	for i := uint64(0); i < probeWindow; i++ {
		b := &d.buckets[(home+i)&d.mask]
		if b.flow == flow {
			return b
		}
		if b.flow == 0 {
			b.flow = flow
			b.last = now
			return b
		}
		if now >= b.demotedUntil && (victim == nil || b.level < victim.level) {
			victim = b
		}
	}
	if victim == nil {
		// Every probe slot holds a demoted flow: reuse the home slot
		// rather than stall; the displaced hitter re-trips in one burst.
		victim = &d.buckets[home]
	}
	d.evictions.Add(1)
	*victim = bucket{flow: flow, last: now}
	return victim
}

// charge meters size bytes of flow at time now (nanos) and reports
// whether the flow is currently demoted. Flow 0 — detector traffic and
// anything unattributable — is always admitted.
func (d *detector) charge(flow uint64, size int, now int64) bool {
	if flow == 0 {
		return false
	}
	b := d.slot(flow, now)
	if dt := now - b.last; dt > 0 {
		b.level -= d.cfg.Rate * float64(dt) / float64(time.Second)
		if b.level < 0 {
			b.level = 0
		}
	}
	b.last = now
	b.level += float64(size)
	if b.level > float64(d.cfg.Burst) {
		if now >= b.demotedUntil {
			d.demotions.Add(1)
			if d.cfg.OnDemote != nil {
				d.cfg.OnDemote(flow)
			}
		}
		b.demotedUntil = now + int64(d.cfg.Penalty)
		// Clamp so recovery is governed by Penalty, not by how far the
		// flood overshot an already-tripped bucket.
		b.level = float64(d.cfg.Burst)
	}
	return now < b.demotedUntil
}
