//go:build linux

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// delivery is one URB-delivery as a node reported it.
type delivery struct {
	id   wire.MsgID
	at   int64 // ns since the run epoch
	fast bool
	// inc is the incarnation of the process that delivered: 0 until its
	// first restart.
	inc uint8
}

// slot is one process position of the cluster, across restarts.
type slot struct {
	// mu orders the generator's Broadcast on this slot against a stop or
	// restart of it, so that no broadcast is refused by a node the
	// generator saw live.
	mu   sync.Mutex
	node *node.Node
	down bool
	inc  uint8

	// log is appended on the node goroutine (one incarnation at a time)
	// and read once every node has stopped appending; count mirrors its
	// length for the drain wait.
	log   []delivery
	count atomic.Int64

	// raw is the undecorated transport endpoint, for inbox depth polls.
	raw   transport.Transport
	store store.Store
}

// slotObserver feeds one incarnation's deliveries into its slot's log.
type slotObserver struct {
	s     *slot
	epoch time.Time
	inc   uint8
}

func (o *slotObserver) OnSend(wire.Message, []byte) {}
func (o *slotObserver) OnReceive(wire.Message)      {}
func (o *slotObserver) OnQuiescence(time.Duration)  {}
func (o *slotObserver) OnDeliver(d node.Delivery) {
	o.s.log = append(o.s.log, delivery{id: d.ID, at: int64(d.At.Sub(o.epoch)), fast: d.Fast, inc: o.inc})
	o.s.count.Add(1)
}

// cluster is a workload's live system: n nodes on one mesh or one UDP
// group, with stores where the workload asks for them and timing
// decorators where the run is traced.
type cluster struct {
	w     *workload
	opt   runOptions
	epoch time.Time
	ctx   context.Context
	stop  context.CancelFunc

	mesh   *transport.Mesh
	udps   []*transport.UDP
	oracle *fd.Oracle
	slots  []*slot
	// recs holds one span recorder per slot on a traced run, nil otherwise.
	recs []*recorder
	// storeDir is the directory holding every node's store, "" without.
	storeDir string
}

// buildCluster constructs transports, stores, processes and nodes; no
// node runs yet. dir is where a durable workload puts its stores.
func buildCluster(w *workload, opt runOptions, dir string) (*cluster, error) {
	c := &cluster{w: w, opt: opt, epoch: time.Now(), slots: make([]*slot, w.n)}
	c.ctx, c.stop = context.WithCancel(context.Background())
	seed, traced := opt.seed, opt.traced
	if traced {
		broadcasts := w.broadcasts(opt.seconds)
		c.recs = make([]*recorder, w.n)
		for i := range c.recs {
			c.recs[i] = newRecorder(c.epoch, broadcasts*w.spansPerBroadcast/w.n, broadcasts)
		}
	}
	if w.udp {
		udps, err := transport.UDPGroup(w.n, 0)
		if err != nil {
			return nil, fmt.Errorf("udp group: %w", err)
		}
		c.udps = udps
	} else {
		link := w.link
		if traced {
			link = &tracedLink{inner: link, recs: c.recs}
		}
		c.mesh = transport.NewMesh(transport.MeshConfig{N: w.n, Link: link, Unit: time.Millisecond, Seed: seed})
	}
	if w.stack == stackQuiescent {
		correct := make([]bool, w.n)
		for i := range correct {
			correct[i] = true // a restarted node recovers, so it counts as correct
		}
		c.oracle = fd.NewOracle(fd.OracleConfig{N: w.n, Noise: fd.NoiseExact, Seed: seed}, correct)
	}
	if w.durable {
		c.storeDir = dir
	}
	for i := range c.slots {
		s := &slot{}
		c.slots[i] = s
		if w.udp {
			s.raw = c.udps[i]
		} else {
			s.raw = c.mesh.Endpoint(i)
		}
		opts := c.nodeOptions(i)
		if w.durable {
			st, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d", i)))
			if err != nil {
				c.close()
				return nil, fmt.Errorf("open store: %w", err)
			}
			s.store = st
			opts = append(opts, node.WithStore(c.storeFor(i)))
		}
		s.node = node.New(c.process(i), c.transportFor(i), opts...)
	}
	return c, nil
}

// start launches every node.
func (c *cluster) start() error {
	for _, s := range c.slots {
		if err := s.node.Start(c.ctx); err != nil {
			return fmt.Errorf("start node: %w", err)
		}
	}
	return nil
}

// clock is the detectors' time source, in milliseconds.
func (c *cluster) clock() int64 {
	if c.mesh != nil {
		return c.mesh.ElapsedUnits()
	}
	return int64(time.Since(c.epoch) / time.Millisecond)
}

// process builds slot i's algorithm instance. Every incarnation of a
// slot is built the same way, its tag stream at position zero, which is
// what node.Recover requires.
func (c *cluster) process(i int) urb.Process {
	tags := ident.NewSource(xrand.New(xrand.HashStream(c.opt.seed, 0x7a65, uint64(i))))
	var p algorithm
	switch c.w.stack {
	case stackQuiescent:
		det := c.oracle.Handle(i, c.clock)
		if c.recs != nil {
			det = &tracedDetector{inner: det, rec: c.recs[i]}
		}
		p = urb.NewQuiescent(det, tags, c.w.cfg)
	case stackMajority:
		p = urb.NewMajority(c.w.n, tags, c.w.cfg)
	case stackHeartbeat:
		timeout := heartbeatTimeoutTicks * int64(c.w.tick/time.Millisecond)
		p = urb.NewHeartbeatHost(tags, timeout, 1, c.clock, c.w.cfg)
	}
	if c.recs != nil {
		return &tracedProc{inner: p, rec: c.recs[i]}
	}
	return p
}

func (c *cluster) transportFor(i int) transport.Transport {
	tr := c.slots[i].raw
	if c.w.udp {
		// Sockets have no link model; the stated delay comes from the
		// program's own Chaos wrapper, which judges a frame once, before
		// the fan-out, and sends it on from a timer.
		link := c.w.link
		if c.recs != nil {
			tr = lateSender{tr, &c.recs[i].lateSendNs}
			link = &tracedLink{inner: link, recs: c.recs[i : i+1]} // Chaos judges as link 0 -> 0
		}
		tr = transport.NewChaos(tr, transport.ChaosConfig{Model: link, Seed: xrand.HashStream(c.opt.seed, 0xc4a05, uint64(i))})
	}
	if c.recs != nil {
		return &tracedTransport{inner: tr, rec: c.recs[i]}
	}
	return tr
}

func (c *cluster) storeFor(i int) store.Store {
	if c.recs != nil {
		return &tracedStore{inner: c.slots[i].store, rec: c.recs[i]}
	}
	return c.slots[i].store
}

func (c *cluster) nodeOptions(i int) []node.Option {
	s := c.slots[i]
	return []node.Option{
		node.WithCheckpointEvery(time.Duration(c.w.checkpoint * float64(c.w.schedule(c.opt.seconds)))),
		node.WithTickEvery(c.w.tick),
		node.WithSeed(xrand.HashStream(c.opt.seed, uint64(i))),
		node.WithObserver(&slotObserver{s: s, epoch: c.epoch, inc: s.inc}),
	}
}

// crash stops slot i for good.
func (c *cluster) crash(i int) {
	s := c.slots[i]
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
	s.node.Stop()
}

// restart stops slot i and recovers it from its store at once. It
// returns when the predecessor had stopped and how long node.Recover
// took.
func (c *cluster) restart(i int) (stopped time.Time, recoverTook time.Duration, err error) {
	c.crash(i)
	stopped = time.Now()
	s := c.slots[i]
	s.inc++
	raw := c.mesh.Reopen(i)
	s.mu.Lock()
	s.raw = raw
	s.mu.Unlock()
	begin := time.Now()
	nd, err := node.Recover(c.process(i), c.storeFor(i), c.transportFor(i), c.nodeOptions(i)...)
	recoverTook = time.Since(begin)
	if err != nil {
		return stopped, recoverTook, fmt.Errorf("recover node %d: %w", i, err)
	}
	if err := nd.Start(c.ctx); err != nil {
		return stopped, recoverTook, fmt.Errorf("start recovered node %d: %w", i, err)
	}
	s.mu.Lock()
	s.node, s.down = nd, false
	s.mu.Unlock()
	return stopped, recoverTook, nil
}

// live lists the slots whose node runs now.
func (c *cluster) live() []*slot {
	var out []*slot
	for _, s := range c.slots {
		s.mu.Lock()
		if !s.down {
			out = append(out, s)
		}
		s.mu.Unlock()
	}
	return out
}

// overflows counts inbound frames dropped on a full inbox, cluster-wide.
func (c *cluster) overflows() uint64 {
	if c.mesh != nil {
		return c.mesh.Overflows()
	}
	var n uint64
	for _, u := range c.udps {
		n += u.Overflows()
	}
	return n
}

// discardInFlight empties the inboxes of a closed cluster and waits out
// the link timers still holding a delayed frame.
func (c *cluster) discardInFlight() {
	for _, s := range c.slots {
		for inbox := s.raw.Receive(); ; {
			select {
			case _, ok := <-inbox:
				if ok {
					continue
				}
			default:
			}
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
}

// close stops every node and releases transports, stores and store
// files. Nodes have exited when it returns.
func (c *cluster) close() {
	c.stop()
	for _, s := range c.slots {
		if s == nil {
			continue
		}
		if s.node != nil {
			s.node.Stop()
		}
		if s.store != nil {
			s.store.Close()
		}
	}
	if c.mesh != nil {
		c.mesh.Close()
	}
	for _, u := range c.udps {
		u.Close()
	}
	if c.storeDir != "" {
		os.RemoveAll(c.storeDir)
	}
}
