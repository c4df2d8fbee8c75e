package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/xrand"
)

// ChaosConfig parameterises a Chaos wrapper.
type ChaosConfig struct {
	// Model judges every outbound frame (required). Per-link state
	// (burst state, attempt counters) is tracked exactly as the
	// simulator's mesh tracks it. The wrapper presents itself to the
	// model as the single directed link (Src, Dst): index-independent
	// models (Bernoulli, GilbertElliott, DropFirst, Reliable) behave
	// exactly as in the simulator, while index-dependent models
	// (Partition, SlowSink, Script) see only that one link — set Src and
	// Dst to the indices you want the wrapper to impersonate, or use
	// Mesh for true per-destination behaviour.
	Model channel.LinkModel
	// Src and Dst are the link identity reported to the model for every
	// frame. Default 0,0.
	Src, Dst int
	// Unit converts the model's abstract delay units into wall-clock
	// time. Defaults to 1ms.
	Unit time.Duration
	// Seed drives the model's randomness.
	Seed uint64
}

// Chaos wraps another Transport and applies a channel.LinkModel to every
// outbound frame: the model may drop the frame or delay it before it
// reaches the inner transport. This turns any transport — including real
// UDP sockets — into a reproduction of a simulator loss scenario.
//
// The model judges each frame once, before fan-out, as the single
// directed link (cfg.Src, cfg.Dst): a dropped frame is lost towards
// every destination, which is a legal (if bursty) fair lossy channel as
// long as the model itself is fair. Per-destination independent loss —
// and the full index-dependent behaviour of models like Partition or
// SlowSink — is what Mesh provides; wrap each node's transport in its
// own Chaos (distinct seeds) to decorrelate senders.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig
	start time.Time

	judgeMu sync.Mutex
	// net holds the one link's attempt counters + burst state; guarded
	// by judgeMu.
	net *channel.Network

	// line holds the frames the model delayed.
	line delayLine

	closed  atomic.Bool
	drops   atomic.Uint64
	sends   atomic.Uint64
	delayed atomic.Uint64
}

var _ Transport = (*Chaos)(nil)

// NewChaos wraps inner with the given loss model.
//
//urbvet:wallclock pins the epoch the chaos judge's unit clock counts from
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	if inner == nil {
		panic("transport: chaos inner transport is required")
	}
	if cfg.Model == nil {
		panic("transport: chaos Model is required")
	}
	if cfg.Unit <= 0 {
		cfg.Unit = time.Millisecond
	}
	if cfg.Src < 0 || cfg.Dst < 0 {
		panic("transport: chaos Src/Dst must be >= 0")
	}
	// The mesh is sized just large enough to contain the impersonated
	// link; only that one link is ever used.
	n := cfg.Src + 1
	if cfg.Dst >= n {
		n = cfg.Dst + 1
	}
	return &Chaos{
		inner: inner,
		cfg:   cfg,
		start: time.Now(),
		net:   channel.NewNetwork(n, cfg.Model, xrand.SplitLabeled(cfg.Seed, "chaos")),
	}
}

// Send implements Transport: judge the frame, then drop it, forward it
// at once, or forward it after the model's delay.
//
//urbvet:wallclock the judge clocks frames in real units and stamps a delayed frame's due time; the model itself stays seeded
func (c *Chaos) Send(frame []byte) {
	if c.closed.Load() {
		return
	}
	c.sends.Add(1)
	sent := time.Now()
	now := int64(sent.Sub(c.start) / c.cfg.Unit)
	c.judgeMu.Lock()
	v := c.net.Send(now, c.cfg.Src, c.cfg.Dst, len(frame))
	c.judgeMu.Unlock()
	if v.Drop {
		c.drops.Add(1)
		return
	}
	if v.Delay <= 0 {
		c.inner.Send(frame)
		return
	}
	c.delayed.Add(1)
	c.line.add(sent.Add(time.Duration(v.Delay)*c.cfg.Unit), c, frame)
}

// deliver forwards a frame whose delay has passed (delaySink).
func (c *Chaos) deliver(frame []byte) { c.inner.Send(frame) }

// Receive implements Transport: inbound frames pass through untouched.
func (c *Chaos) Receive() <-chan []byte { return c.inner.Receive() }

// Inner implements Wrapper: chaos decorates the returned transport.
func (c *Chaos) Inner() Transport { return c.inner }

// FrameBudget implements Transport: chaos adds no framing of its own,
// so the wrapped transport's budget applies.
func (c *Chaos) FrameBudget() int { return c.inner.FrameBudget() }

// Close implements Transport: discards the frames still delayed — once
// Close returns nothing more is forwarded — and closes the wrapped
// transport.
func (c *Chaos) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.line.close()
	return c.inner.Close()
}

// Stats returns (frames judged, frames dropped) by the model so far.
func (c *Chaos) Stats() (sends, drops uint64) {
	return c.sends.Load(), c.drops.Load()
}

// ChaosStats is the full counter snapshot of one Chaos wrapper.
type ChaosStats struct {
	// Sends is how many frames the model judged; Drops how many it
	// swallowed; Delayed how many it deferred on the delay line before
	// forwarding. Sends − Drops is what actually reached the inner
	// transport (or still will, for frames on the line; Close discards
	// those).
	Sends, Drops, Delayed uint64
}

// StatsDetail returns every counter at once, for surfacing in cluster
// stats (liverun.Cluster.ChaosStats) and nemesis audits.
func (c *Chaos) StatsDetail() ChaosStats {
	return ChaosStats{
		Sends:   c.sends.Load(),
		Drops:   c.drops.Load(),
		Delayed: c.delayed.Load(),
	}
}

// String describes the wrapper.
func (c *Chaos) String() string {
	return fmt.Sprintf("chaos(%s)->%v", c.cfg.Model, c.inner)
}
