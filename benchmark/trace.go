//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/obs"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// This file is the traced run's instrumentation. The benchmark may not
// edit the program, so every layer is timed from outside, at the
// interfaces node.New already accepts: each decorator below wraps one of
// them, forwards every call, and records a span around it.

// layer names the module a span was recorded at.
type layer uint8

const (
	layerURB layer = iota
	layerFD
	layerTransport
	layerChannel
	layerStore
	numLayers
)

var layerNames = [numLayers]string{"urb", "fd", "transport", "channel", "store"}

// op names the call a span covers.
type op uint8

const (
	opReceive op = iota
	opTick
	opBroadcast
	opSnapshot
	opRestore
	opView
	opSend
	opJudge
	opAppend
	opSave
	opLoad
	numOps
)

var opNames = [numOps]string{"receive", "tick", "broadcast", "snapshot", "restore",
	"view", "send", "judge", "append", "save", "load"}

// merged marks the ops whose back-to-back calls within one step are
// recorded as one span: the Receive calls for the messages of one inbound
// frame, the link verdicts for the copies of one sent frame, the detector
// reads of one algorithm call. Algorithm 1 receives thousands of messages
// per delivery, and a span for each would cost more than the calls.
var merged = [numOps]bool{opReceive: true, opJudge: true, opView: true}

// nestedIn[l] is the layer whose spans nest inside layer l's, numLayers
// where there is none.
var nestedIn = [numLayers]layer{layerURB: layerFD, layerFD: numLayers, layerTransport: layerChannel,
	layerChannel: numLayers, layerStore: numLayers}

// span is one timed call into a layer.
type span struct {
	start int64 // ns since the run epoch
	dur   int64 // ns
	// child is the part of dur covered by spans nested inside this one
	// (fd views inside urb calls, channel verdicts inside transport
	// sends): self time is dur - child.
	child int64
	// n is the call's size where it has one: bytes for send, append,
	// save, load and snapshot; 0 otherwise.
	n uint32
	// calls is how many calls the span covers: 1, or more for a merged
	// span, whose dur is the sum of the calls' durations and whose start
	// is the first call's.
	calls uint32
	// step is the node-local sequence number of the input that caused
	// this span (see recorder.input).
	step  uint32
	layer layer
	op    op
}

func (s span) self() int64 { return s.dur - s.child }

// recorder is one node's span buffer. Every call into a node's process,
// transport, store and detector arrives on that node's one goroutine (a
// restarted node's successor goroutine starts after the predecessor's
// exited), so a recorder needs no lock.
type recorder struct {
	epoch time.Time
	spans []span
	// step numbers the algorithm inputs. A Tick or a Broadcast always
	// opens a new step; a Receive opens one only when an output (send,
	// append, snapshot) was recorded since the previous input, because
	// the node feeds every message of one inbound frame to Receive
	// before it acts on the merged Step, and the decorator cannot see
	// frame boundaries. Consecutive frames that cause no output
	// therefore share a step.
	step      uint32
	sawOutput bool
	lastInput op
	// child accumulates nested span time for the span currently open.
	child int64
	// last[l] indexes layer l's latest span while a call may still merge
	// into it, -1 otherwise.
	last [numLayers]int
	// frames are the frames handed to Send, retained (not copied: the
	// transport owns a sent frame and nobody may modify it) for the wire
	// codec replay after the run.
	frames [][]byte
	// lastSent[seq] is the last time a Step of this node carried the MSG
	// of broadcast seq to the transport (ns since epoch, 0 = never).
	lastSent []int64
	// lateSendNs is the time spent in sends that happen off the node's
	// goroutine (see lateSender).
	lateSendNs atomic.Int64
}

func newRecorder(epoch time.Time, spanCap, broadcasts int) *recorder {
	r := &recorder{
		epoch:     epoch,
		spans:     make([]span, 0, spanCap),
		lastInput: opTick,
		lastSent:  make([]int64, broadcasts),
	}
	for l := range r.last {
		r.last[l] = -1
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// input marks the start of an algorithm input and assigns its step.
func (r *recorder) input(o op) {
	if r.sawOutput || o != opReceive || r.lastInput != opReceive {
		r.step++
	}
	r.sawOutput = false
	r.lastInput = o
}

// begin opens a span; the returned values go to end.
func (r *recorder) begin() (start, outerChild int64) {
	outerChild, r.child = r.child, 0
	return r.now(), outerChild
}

// end closes the span begin opened and charges it to the enclosing one.
func (r *recorder) end(l layer, o op, start, outerChild int64, n int) {
	d := r.now() - start
	if i := r.last[l]; merged[o] && i >= 0 && r.spans[i].op == o && r.spans[i].step == r.step {
		s := &r.spans[i]
		s.dur += d
		s.child += r.child
		s.calls++
	} else {
		r.last[l] = len(r.spans)
		r.spans = append(r.spans, span{start: start, dur: d, child: r.child,
			n: uint32(n), calls: 1, step: r.step, layer: l, op: o})
	}
	if in := nestedIn[l]; in < numLayers {
		r.last[in] = -1
	}
	r.child = outerChild + d
	if l != layerURB && l != layerFD {
		r.sawOutput = true
	}
}

// noteSends records which broadcasts' MSGs a Step hands to the transport.
func (r *recorder) noteSends(s urb.Step, at int64) {
	for _, m := range s.Broadcasts {
		if m.Kind != wire.KindMsg {
			continue
		}
		if seq, ok := seqOf(m.Body); ok && seq < len(r.lastSent) {
			r.lastSent[seq] = at
		}
	}
}

// seqOf reads the broadcast sequence number the generator puts in the
// first eight payload bytes.
func seqOf[B ~[]byte | ~string](body B) (int, bool) {
	if len(body) < 8 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(body[i])
	}
	return int(v), true
}

// algorithm is what all three stacks implement beyond urb.Process; the
// process decorator forwards the whole surface so node.Recover, the join
// path, WithTracer and Explain keep working through it.
type algorithm interface {
	urb.Joiner
	obs.Traceable
	obs.Explainer
}

// tracedProc times every call the node makes into the algorithm.
type tracedProc struct {
	inner algorithm
	rec   *recorder
}

var _ algorithm = (*tracedProc)(nil)

func (p *tracedProc) Broadcast(body []byte) (wire.MsgID, urb.Step) {
	p.rec.input(opBroadcast)
	t, outer := p.rec.begin()
	id, s := p.inner.Broadcast(body)
	p.rec.end(layerURB, opBroadcast, t, outer, 0)
	p.rec.noteSends(s, t)
	return id, s
}

func (p *tracedProc) Receive(m wire.Message) urb.Step {
	p.rec.input(opReceive)
	t, outer := p.rec.begin()
	s := p.inner.Receive(m)
	p.rec.end(layerURB, opReceive, t, outer, 0)
	p.rec.noteSends(s, t)
	return s
}

func (p *tracedProc) Tick() urb.Step {
	p.rec.input(opTick)
	t, outer := p.rec.begin()
	s := p.inner.Tick()
	p.rec.end(layerURB, opTick, t, outer, 0)
	p.rec.noteSends(s, t)
	return s
}

func (p *tracedProc) Snapshot() []byte {
	t, outer := p.rec.begin()
	snap := p.inner.Snapshot()
	p.rec.end(layerURB, opSnapshot, t, outer, len(snap))
	return snap
}

func (p *tracedProc) Restore(data []byte) error {
	t, outer := p.rec.begin()
	err := p.inner.Restore(data)
	p.rec.end(layerURB, opRestore, t, outer, len(data))
	return err
}

func (p *tracedProc) Stats() urb.Stats                      { return p.inner.Stats() }
func (p *tracedProc) ApplyWAL(rec urb.DurableEvent) error   { return p.inner.ApplyWAL(rec) }
func (p *tracedProc) Rejoin()                               { p.inner.Rejoin() }
func (p *tracedProc) Adopt()                                { p.inner.Adopt() }
func (p *tracedProc) SetTracer(t *obs.Tracer)               { p.inner.SetTracer(t) }
func (p *tracedProc) Explain(id wire.MsgID) obs.Explanation { return p.inner.Explain(id) }

// tracedTransport times Send and retains the frames for the wire replay.
// Receive hands out the inner channel itself, so inbound frames pay
// nothing.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
}

var (
	_ transport.Transport = (*tracedTransport)(nil)
	_ transport.Wrapper   = (*tracedTransport)(nil)
)

func (t *tracedTransport) Send(frame []byte) {
	start, outer := t.rec.begin()
	t.inner.Send(frame)
	t.rec.end(layerTransport, opSend, start, outer, len(frame))
	t.rec.frames = append(t.rec.frames, frame)
}

func (t *tracedTransport) Receive() <-chan []byte     { return t.inner.Receive() }
func (t *tracedTransport) FrameBudget() int           { return t.inner.FrameBudget() }
func (t *tracedTransport) Close() error               { return t.inner.Close() }
func (t *tracedTransport) Inner() transport.Transport { return t.inner }

// lateSender times the sends a Chaos wrapper performs after the link
// delay. They run on timer goroutines, so they cannot go into the node's
// lock-free span buffer; only their total is kept, and it is added to the
// transport layer's self time.
type lateSender struct {
	transport.Transport
	ns *atomic.Int64
}

var _ transport.Wrapper = lateSender{}

func (l lateSender) Send(frame []byte) {
	start := time.Now()
	l.Transport.Send(frame)
	l.ns.Add(int64(time.Since(start)))
}

func (l lateSender) Inner() transport.Transport { return l.Transport }

// tracedStore times the durable writes and the recovery read.
type tracedStore struct {
	inner store.Store
	rec   *recorder
}

var _ store.Store = (*tracedStore)(nil)

func (s *tracedStore) AppendWAL(rec []byte) error {
	t, outer := s.rec.begin()
	err := s.inner.AppendWAL(rec)
	s.rec.end(layerStore, opAppend, t, outer, len(rec))
	return err
}

func (s *tracedStore) SaveSnapshot(snap []byte) error {
	t, outer := s.rec.begin()
	err := s.inner.SaveSnapshot(snap)
	s.rec.end(layerStore, opSave, t, outer, len(snap))
	return err
}

func (s *tracedStore) Load() ([]byte, [][]byte, error) {
	t, outer := s.rec.begin()
	snap, wal, err := s.inner.Load()
	n := len(snap)
	for _, r := range wal {
		n += len(r)
	}
	s.rec.end(layerStore, opLoad, t, outer, n)
	return snap, wal, err
}

func (s *tracedStore) Stats() store.Stats { return s.inner.Stats() }
func (s *tracedStore) Close() error       { return s.inner.Close() }

// tracedLink times the mesh's per-copy link verdicts. The mesh judges a
// frame's copies on the sending node's goroutine, so the span goes to
// the sender's recorder and nests inside its transport send span.
type tracedLink struct {
	inner channel.LinkModel
	recs  []*recorder
}

var _ channel.LinkModel = (*tracedLink)(nil)

func (l *tracedLink) Judge(now int64, src, dst int, attempt uint64, rng *xrand.Source) channel.Verdict {
	r := l.recs[src]
	t, outer := r.begin()
	v := l.inner.Judge(now, src, dst, attempt, rng)
	r.end(layerChannel, opJudge, t, outer, 0)
	return v
}

func (l *tracedLink) String() string { return l.inner.String() }

// tracedDetector times the failure detector reads Algorithm 2 makes on
// every ACK receipt and every tick; the spans nest inside urb spans.
type tracedDetector struct {
	inner fd.Detector
	rec   *recorder
}

var _ fd.Detector = (*tracedDetector)(nil)

func (d *tracedDetector) ATheta() fd.View {
	t, outer := d.rec.begin()
	v := d.inner.ATheta()
	d.rec.end(layerFD, opView, t, outer, 0)
	return v
}

func (d *tracedDetector) APStar() fd.View {
	t, outer := d.rec.begin()
	v := d.inner.APStar()
	d.rec.end(layerFD, opView, t, outer, 0)
	return v
}

// spanCost measures what recording one span costs, for the stand-alone
// estimate of the tracing overhead.
func spanCost() time.Duration {
	const rounds = 1 << 16
	r := newRecorder(time.Now(), rounds, 0)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		t, outer := r.begin()
		r.end(layerStore, opAppend, t, outer, 0)
	}
	return time.Since(start) / rounds
}

// writeSpans writes every recorder's spans as JSON lines.
func writeSpans(path string, recs []*recorder) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("span file: %w", cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for node, r := range recs {
		for _, s := range r.spans {
			_, err := fmt.Fprintf(w, `{"node":%d,"layer":%q,"op":%q,"start_ns":%d,"dur_ns":%d,"child_ns":%d,"calls":%d,"step":%d,"n":%d}`+"\n",
				node, layerNames[s.layer], opNames[s.op], s.start, s.dur, s.child, s.calls, s.step, s.n)
			if err != nil {
				return fmt.Errorf("span file: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
