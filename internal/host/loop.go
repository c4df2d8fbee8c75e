package host

import (
	"iter"

	"anonurb/internal/obs"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// Loop is the body of a host's event loop (DESIGN.md §6), written once
// for both drivers: node.Node calls it under the wall clock, sim.Engine
// under virtual time. A burst of received frames (OnFrames), a Task-1
// tick (OnTick) and a local broadcast (Absorb) all end in one absorb:
// Core.Commit, then the Step's broadcasts packed into frames. The node
// hands over the frames already waiting in its inbox as a burst; sim
// hands over one frame per receive event (OnFrame). The driver exposes
// Out.Deliveries and sends Out.Frames. A Loop is not safe for
// concurrent use.
type Loop struct {
	Core
	cfg LoopConfig
	// receive lands one reception in step: urb.ReceiveFunc of Proc,
	// decided by NewLoop and again by SetProc, the one way to replace
	// Proc afterwards.
	receive func(*urb.Step, *wire.Message)
	// msg is OnFrames' decode target. A field rather than a local, so
	// the pointer handed to receive makes nothing escape; OnFrames zeroes
	// it before returning, because its Body borrows the frame.
	msg wire.Message
	// burst is the buffer Gather collects frames in for OnFrames.
	burst [][]byte
	// step and out live until Free: a batch frame fills one Step with a
	// hundred receptions' outputs, and re-growing fresh slices for every
	// frame was a measurable share of a busy node's CPU.
	step urb.Step
	out  Out
	// walGrew and lastCheckpoint are the checkpoint rule's state.
	walGrew        bool
	lastCheckpoint int64
}

// LoopConfig is what a driver fixes about its loop: the frame budget in
// bytes (0 = unbudgeted) that SNAPCHUNKs and batches are sized under,
// whether a Step's messages share frames (else one message per frame),
// the checkpoint cadence in the driver's time unit (0 = never), and the
// tracer (nil = off) for snapshot-transfer events and for the deliveries
// the loop hands its driver to expose.
type LoopConfig struct {
	Budget          int
	Batch           bool
	CheckpointEvery int64
	Tracer          *obs.Tracer
}

// Span locates one sent message inside Out.Frames.
type Span struct{ Frame, Start, End int }

// Out is what one Loop call hands its driver. It is the loop's own
// buffer, valid until the next call.
type Out struct {
	// Received counts the messages decoded from the frames (OnFrames
	// only); Good counts the frames something decoded from, Bad those
	// nothing did. Together they are the frames the call took.
	Received, Good, Bad int
	// WALRecords and WALBytes count the records this call appended;
	// Checkpoint is the size of the snapshot it saved (0 for none).
	WALRecords, WALBytes, Checkpoint int
	// Deliveries are durable by now: expose them before sending.
	Deliveries []urb.Delivery
	// Msgs are the Step's broadcasts, packed in order into Frames, and
	// Spans[i] locates Msgs[i]. Each frame is freshly allocated, so a
	// transport may keep it.
	Msgs   []wire.Message
	Frames [][]byte
	Spans  []Span
}

// NewLoop builds the loop around c at time now, the origin of the
// checkpoint cadence.
func NewLoop(c Core, cfg LoopConfig, now int64) *Loop {
	return &Loop{Core: c, cfg: cfg, receive: urb.ReceiveFunc(c.Proc), lastCheckpoint: now}
}

// SetProc replaces the loop's process, as a recovery does.
func (l *Loop) SetProc(p urb.Process) {
	l.Proc, l.receive = p, urb.ReceiveFunc(p)
}

// Messages yields the messages of a received frame in order. A frame
// carries one message or a whole batch — pure concatenation either way,
// so DecodePrefix splits it. A corrupt tail ends the frame: the
// remainder is lost, as fair lossy channels may lose anything,
// including half a batch.
func Messages(frame []byte) iter.Seq[wire.Message] {
	return func(yield func(wire.Message) bool) {
		for rest := frame; len(rest) > 0; {
			m, next, err := wire.DecodePrefix(rest)
			if err != nil || !yield(m) {
				return
			}
			rest = next
		}
	}
}

// Gather appends frame to the burst the loop collects for OnFrames and
// returns the burst so far. The buffer lives with the loop, so gathering
// allocates nothing once it has grown; the OnFrames call that takes the
// last of a burst empties it, so it pins no frame, and Free drops it.
func (l *Loop) Gather(frame []byte) [][]byte {
	l.burst = append(l.burst, frame)
	return l.burst
}

// OnFrame is OnFrames over one frame.
func (l *Loop) OnFrame(frame []byte) (*Out, error) {
	return l.OnFrames(l.Gather(frame))
}

// OnFrames feeds a burst of received frames to the process, frame by
// frame and message by message, every reception appending its outputs
// to the one Step; one absorb then commits and packs them all, so the
// replies (e.g. the ACKs to a batch of MSGs, or to a delay line's wake of
// copies) leave as one batch in turn, in the order one-frame calls would
// have sent them.
//
// With a store, the call ends after the first frame that produced
// anything — a message to send, a durable event or a delivery — and
// Out.Good+Out.Bad tells the driver how many frames it took; the driver
// hands the rest to the next call. Merged further, a frame's reply or
// delivery would wait for a later frame's synced write-ahead, which one
// call per frame sends or exposes first. Without a store nothing waits
// on a sync, and the call takes every frame.
//
// Join traffic is host-level and never shown to the algorithm: a
// SNAPREQ is served (Core.ServeSnap), a SNAPCHUNK addresses a
// bootstrapping joiner, not us. Each frame is split as Messages splits
// it, but each message is decoded in place into the loop's one Message
// (wire.DecodeInto) and handed on by pointer rather than copied out of an
// iterator: on a frame of duplicates, those copies were a tenth of the
// node's CPU.
//
//urb:hotpath
func (l *Loop) OnFrames(frames [][]byte) (*Out, error) {
	l.Release()
	m := &l.msg
	for _, frame := range frames {
		before := l.out.Received
		for rest := frame; len(rest) > 0; {
			var err error
			if rest, err = wire.DecodeInto(m, rest); err != nil {
				break
			}
			l.out.Received++
			if !m.Kind.IsSnap() {
				l.receive(&l.step, m)
			} else if m.Kind == wire.KindSnapReq {
				l.cfg.Tracer.Snap(obs.EvSnapReq, int(m.Off), 0)
				if served := l.ServeSnap(*m, l.cfg.Budget, &l.step); served > 0 {
					l.cfg.Tracer.Snap(obs.EvSnapChunk, int(m.Off), served)
				}
			}
		}
		if l.out.Received == before {
			l.out.Bad++
		} else {
			l.out.Good++
		}
		if l.Store != nil && len(l.step.Broadcasts)+len(l.step.Durable)+len(l.step.Deliveries) > 0 {
			break
		}
	}
	*m = wire.Message{}
	if l.out.Good+l.out.Bad == len(frames) {
		clear(l.burst)
		l.burst = l.burst[:0]
	}
	return l.absorb(l.step)
}

// OnTick runs Task 1 at time now, checkpointing first when the cadence
// has elapsed and the WAL grew since the last checkpoint: an idle (e.g.
// quiescent) process re-snapshotting an unchanged state is pure churn.
func (l *Loop) OnTick(now int64) (*Out, error) {
	l.Release()
	if l.walGrew && l.cfg.CheckpointEvery > 0 && now-l.lastCheckpoint >= l.cfg.CheckpointEvery {
		size, err := checkpoint(l.Proc, l.Store)
		if err != nil {
			return &l.out, err
		}
		l.out.Checkpoint, l.lastCheckpoint, l.walGrew = size, now, false
	}
	return l.absorb(l.Proc.Tick())
}

// Absorb acts on a Step the driver got from the process itself: a local
// URB_broadcast.
func (l *Loop) Absorb(s urb.Step) (*Out, error) {
	l.Release()
	return l.absorb(s)
}

// Release drops what the last Out references — frames and the merged
// Step — so an idle loop pins none of it. A driver
// calls it once done with an Out; every call starts with it anyway.
func (l *Loop) Release() {
	s, o := &l.step, &l.out
	clear(s.Broadcasts)
	clear(s.Deliveries)
	clear(s.Durable)
	clear(o.Frames)
	*s = urb.Step{Broadcasts: s.Broadcasts[:0], Deliveries: s.Deliveries[:0], Durable: s.Durable[:0]}
	*o = Out{Frames: o.Frames[:0], Spans: o.Spans[:0]}
}

// Free drops the loop's reusable buffers too. A driver calls it once the
// process has stopped, so a stopped process pins only its state; a loop
// used again regrows them.
func (l *Loop) Free() { l.step, l.out, l.burst = urb.Step{}, Out{}, nil }

// absorb writes s ahead and packs its broadcasts. On a store error it
// returns the error with nothing to expose or send, and the driver stops
// (fail-stop), so everything it ever exposed is durable. DELIVER is
// traced here, after the commit, so a trace holds exactly the deliveries
// a driver exposes. Each message is encoded straight into the frame pack
// sized; nothing is cached.
//
//urb:hotpath
func (l *Loop) absorb(s urb.Step) (*Out, error) {
	records, bytes, err := l.Commit(s)
	l.out.WALRecords, l.out.WALBytes = records, bytes
	l.walGrew = l.walGrew || records > 0
	if err != nil {
		return &l.out, err
	}
	for _, d := range s.Deliveries {
		l.cfg.Tracer.Deliver(d.ID, d.Fast)
	}
	l.out.Deliveries = s.Deliveries
	l.out.Msgs = s.Broadcasts
	for ms := s.Broadcasts; len(ms) > 0; {
		size, k := l.pack(ms)
		frame := make([]byte, 0, size)
		for i := range ms[:k] {
			start := len(frame)
			frame = ms[i].Encode(frame)
			l.out.Spans = append(l.out.Spans, Span{Frame: len(l.out.Frames), Start: start, End: len(frame)})
		}
		l.out.Frames = append(l.out.Frames, frame)
		ms = ms[k:]
	}
	return &l.out, nil
}

// pack applies the packing rule ahead of encoding: the first k messages
// of ms share the next frame, size bytes long, so absorb allocates each
// frame once at its final length. A message too large for the budget
// alone still travels alone; the transport decides its fate.
func (l *Loop) pack(ms []wire.Message) (size, k int) {
	size, k = ms[0].EncodedSize(), 1
	for ; l.cfg.Batch && k < len(ms); k++ {
		n := ms[k].EncodedSize()
		if wire.SplitsBatch(size, n, l.cfg.Budget) {
			break
		}
		size += n
	}
	return size, k
}
