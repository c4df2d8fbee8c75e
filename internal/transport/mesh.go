package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/xrand"
)

// MeshConfig describes an in-process mesh of N endpoints.
type MeshConfig struct {
	// N is the number of endpoints (processes).
	N int
	// Link is the loss/delay model applied to every directed link,
	// including each endpoint's self-link (required).
	Link channel.LinkModel
	// Unit converts the link model's abstract delay units into wall-clock
	// time. Defaults to 1ms.
	Unit time.Duration
	// Seed drives the link randomness.
	Seed uint64
	// InboxDepth bounds each endpoint's inbound frame queue; a full queue
	// drops frames (legal: the network is lossy anyway). Defaults to 1024.
	InboxDepth int
	// FrameBudget is the batch frame size hint every endpoint reports
	// (Transport.FrameBudget). The mesh itself carries frames of any
	// size; the budget exists so batching senders behave identically on
	// the mesh and on size-limited transports. 0 defaults to
	// MaxUDPFrame (UDP parity); negative means unbounded (endpoints
	// report 0).
	FrameBudget int
}

// Mesh is the in-process transport: N endpoints joined by an n×n mesh of
// fair lossy links (channel.Network), link delays realised in real time
// by one delay line. It is the Transport the live cluster runtime runs on, and the
// live counterpart of the deterministic simulator's network.
type Mesh struct {
	cfg   MeshConfig
	start time.Time

	netMu sync.Mutex
	// net is the fair-lossy link model; guarded by netMu (one judgement
	// per (send, destination), serialised).
	net *channel.Network

	epMu sync.RWMutex
	// eps holds the per-node endpoints; guarded by epMu. The slice is
	// never written in place: Reopen and Grow install a new one, so a
	// reader may keep using the one it loaded after unlocking.
	eps []*meshEndpoint
	// line holds the copies whose link delay has not passed yet.
	line delayLine
	// shedOverflows accumulates the overflow counts of endpoints replaced
	// by Reopen, so the mesh-wide total survives node restarts.
	shedOverflows atomic.Uint64
	closed        atomic.Bool

	lastSend atomic.Int64 // elapsed units of the most recent send
	sends    atomic.Uint64
	drops    atomic.Uint64
	// frameAware routes broadcasts through the encoded-frame judging
	// path (set once at construction when cfg.Link is a
	// channel.FrameModel, so mutating/duplicating models see real bytes).
	frameAware bool
}

// meshEndpoint is one node's handle on the mesh.
type meshEndpoint struct {
	mesh  *Mesh
	index int

	mu sync.Mutex
	// closed flags the inbox shut; guarded by mu, which serialises the
	// close against the delay line's offers.
	closed    bool
	inbox     chan []byte
	overflows atomic.Uint64
}

var (
	_ Transport       = (*meshEndpoint)(nil)
	_ OverflowCounter = (*meshEndpoint)(nil)
)

// NewMesh builds a mesh. Endpoints are retrieved with Endpoint.
//
//urbvet:wallclock pins the epoch the mesh's link-delay clock counts from
func NewMesh(cfg MeshConfig) *Mesh {
	if cfg.N < 1 {
		panic("transport: mesh N must be >= 1")
	}
	if cfg.Link == nil {
		panic("transport: mesh Link is required")
	}
	if cfg.Unit <= 0 {
		cfg.Unit = time.Millisecond
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 1024
	}
	if cfg.FrameBudget == 0 {
		cfg.FrameBudget = MaxUDPFrame
	} else if cfg.FrameBudget < 0 {
		cfg.FrameBudget = 0 // unbounded
	}
	m := &Mesh{
		cfg:   cfg,
		start: time.Now(),
		net:   channel.NewNetwork(cfg.N, cfg.Link, xrand.SplitLabeled(cfg.Seed, "mesh-net")),
		eps:   make([]*meshEndpoint, cfg.N),
	}
	_, m.frameAware = cfg.Link.(channel.FrameModel)
	for i := range m.eps {
		m.eps[i] = &meshEndpoint{
			mesh:  m,
			index: i,
			inbox: make(chan []byte, cfg.InboxDepth),
		}
	}
	return m
}

// N returns the number of endpoints, counting any added by Grow.
func (m *Mesh) N() int {
	m.epMu.RLock()
	defer m.epMu.RUnlock()
	return len(m.eps)
}

// Endpoint returns endpoint i's Transport. Closing it detaches that
// endpoint only (its peers keep running); Close on the mesh closes all.
func (m *Mesh) Endpoint(i int) Transport {
	m.epMu.RLock()
	defer m.epMu.RUnlock()
	return m.eps[i]
}

// Reopen replaces endpoint i with a fresh one and returns it: the
// crash-recovery path. A node owns (and on Stop closes) its endpoint, so
// a restarted node needs a new handle on the same mesh slot; frames
// already in flight to the old endpoint are dropped, exactly as a lossy
// link may drop anything. The old endpoint's overflow count is folded
// into the mesh-wide total.
func (m *Mesh) Reopen(i int) Transport {
	m.epMu.Lock()
	defer m.epMu.Unlock()
	old := m.eps[i]
	old.Close()
	m.shedOverflows.Add(old.overflows.Load())
	ep := &meshEndpoint{
		mesh:  m,
		index: i,
		inbox: make(chan []byte, m.cfg.InboxDepth),
	}
	eps := slices.Clone(m.eps)
	eps[i] = ep
	m.eps = eps
	return ep
}

// Grow appends a fresh endpoint slot to the mesh and returns its
// Transport — the dynamic-membership generalisation of Reopen: Reopen
// replaces an existing slot (same index, a crashed node recovering),
// Grow creates a new one (new index, a process joining the cluster).
// The link network gains a row and column of fresh fair-lossy links;
// existing links keep their counters and burst state. The new endpoint
// sees only traffic sent after it joined — catching up on earlier state
// is the join protocol's job, not the transport's.
func (m *Mesh) Grow() Transport {
	m.epMu.Lock()
	defer m.epMu.Unlock()
	n := len(m.eps) + 1
	m.netMu.Lock()
	m.net.Grow(n)
	m.netMu.Unlock()
	ep := &meshEndpoint{
		mesh:  m,
		index: n - 1,
		inbox: make(chan []byte, m.cfg.InboxDepth),
	}
	m.eps = append(slices.Clone(m.eps), ep)
	return ep
}

// Detach closes endpoint i for good — the leave path. The slot stays
// (indices are stable, and links never disappear from the network), but
// the endpoint neither sends nor receives again: to the survivors a
// departed process is indistinguishable from a crashed one, and the D4
// purge eventually forgets its labels. Unlike Reopen, nothing replaces
// the endpoint; a returning process must Grow a new slot and re-join.
func (m *Mesh) Detach(i int) {
	m.epMu.RLock()
	ep := m.eps[i]
	m.epMu.RUnlock()
	ep.Close()
}

// ElapsedUnits returns the mesh age in link-delay units (the live
// counterpart of the simulator's virtual clock, e.g. for failure
// detector handles).
//
//urbvet:wallclock the mesh IS the live clock source; everything deterministic consumes its units downstream
func (m *Mesh) ElapsedUnits() int64 {
	return int64(time.Since(m.start) / m.cfg.Unit)
}

// QuietFor reports whether no endpoint has sent for at least d — false
// until the first send, matching Node.QuietFor: a mesh nobody has ever
// used is idle, not quiescent, and quiescence experiments must not
// count it as converged.
func (m *Mesh) QuietFor(d time.Duration) bool {
	if m.sends.Load() == 0 {
		return false
	}
	quietUnits := int64(d / m.cfg.Unit)
	return m.ElapsedUnits()-m.lastSend.Load() >= quietUnits
}

// Stats returns (copies offered, copies dropped) so far. A broadcast of
// one frame offers N copies, one per directed link. Drops include both
// link-model verdicts and inbox overflows; Overflows isolates the
// latter.
func (m *Mesh) Stats() (sends, drops uint64) {
	return m.sends.Load(), m.drops.Load()
}

// LinkStats returns the link network's full statistics, including the
// mutation/duplication counters a nemesis FrameModel feeds.
func (m *Mesh) LinkStats() channel.Stats {
	m.netMu.Lock()
	defer m.netMu.Unlock()
	return m.net.Stats()
}

// Overflows reports how many frame copies were discarded mesh-wide
// because a destination endpoint's inbox was full — load shedding by
// saturated receivers, as opposed to the link model's loss verdicts.
func (m *Mesh) Overflows() uint64 {
	m.epMu.RLock()
	defer m.epMu.RUnlock()
	n := m.shedOverflows.Load()
	for _, ep := range m.eps {
		n += ep.overflows.Load()
	}
	return n
}

// Close closes every endpoint and discards the copies still in flight.
// Idempotent.
func (m *Mesh) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	m.line.close()
	m.epMu.RLock()
	defer m.epMu.RUnlock()
	for _, ep := range m.eps {
		ep.Close()
	}
	return nil
}

// String describes the mesh.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh(n=%d, link=%s, unit=%s)", m.N(), m.cfg.Link, m.cfg.Unit)
}

// broadcast offers one frame to every directed link out of src;
// surviving copies arrive later on the destinations' inboxes. The frame
// slice is shared across destinations, which is safe because receivers
// treat frames as read-only (decoded bodies borrow them, never write).
//
//urbvet:wallclock clocks the send in link-delay units and stamps each delayed copy's due time
func (m *Mesh) broadcast(src int, frame []byte) {
	if m.closed.Load() {
		return
	}
	sent := time.Now()
	now := int64(sent.Sub(m.start) / m.cfg.Unit)
	m.lastSend.Store(now)
	// Load the endpoint set: endpoints added by a concurrent Grow miss
	// this frame, which is legal — the links are lossy, and a joiner
	// catches up through the join protocol, not the backlog.
	m.epMu.RLock()
	eps := m.eps
	m.epMu.RUnlock()
	for dst, target := range eps {
		if m.frameAware {
			// Frame-aware judging: the model sees the encoded bytes and
			// may duplicate or mutate them. Every surviving copy —
			// including mutated ones — is genuinely delivered; rejecting
			// corrupt bytes is the receiving node's decode loop's job
			// (mutation surfaces as a bad frame, i.e. loss).
			m.netMu.Lock()
			copies := m.net.SendFrame(now, src, dst, frame)
			m.netMu.Unlock()
			m.sends.Add(1)
			if len(copies) == 0 {
				m.drops.Add(1)
				continue
			}
			for _, c := range copies {
				payload := frame
				if c.Frame != nil {
					payload = c.Frame
				}
				delay := time.Duration(c.Delay) * m.cfg.Unit
				if delay <= 0 {
					target.deliver(payload)
					continue
				}
				m.line.add(sent.Add(delay), target, payload)
			}
			continue
		}
		m.netMu.Lock()
		v := m.net.Send(now, src, dst, len(frame))
		m.netMu.Unlock()
		m.sends.Add(1)
		if v.Drop {
			m.drops.Add(1)
			continue
		}
		delay := time.Duration(v.Delay) * m.cfg.Unit
		if delay <= 0 {
			target.deliver(frame)
			continue
		}
		m.line.add(sent.Add(delay), target, frame)
	}
}

// deliver hands a frame to the endpoint's inbox unless it is closed; a
// full inbox drops the frame (counted as a mesh drop).
func (e *meshEndpoint) deliver(frame []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.mesh.closed.Load() {
		return
	}
	if !offer(e.inbox, frame) {
		e.mesh.drops.Add(1)
		e.overflows.Add(1)
	}
}

// Overflows implements OverflowCounter: frames this endpoint discarded
// on a full inbox.
func (e *meshEndpoint) Overflows() uint64 { return e.overflows.Load() }

// Send implements Transport.
func (e *meshEndpoint) Send(frame []byte) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	e.mesh.broadcast(e.index, frame)
}

// Receive implements Transport.
func (e *meshEndpoint) Receive() <-chan []byte { return e.inbox }

// FrameBudget implements Transport: the mesh-wide configured budget.
func (e *meshEndpoint) FrameBudget() int { return e.mesh.cfg.FrameBudget }

// Close implements Transport: the endpoint stops sending and its frame
// channel is closed after any buffered frames are drained by the reader.
func (e *meshEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.inbox)
	}
	return nil
}
