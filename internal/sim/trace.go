package sim

import (
	"anonurb/internal/obs"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// TraceObserver records a run into an obs.Tracer: one merged,
// virtually-timestamped lifecycle trace for the whole run (DESIGN.md
// §14), which obs.Run.Check checks and obs.WriteChromeTrace exports.
// Virtual time stands in for the tracer's clock — the adapter never
// reads wall time, so recording keeps the run deterministic: the same
// seed produces byte-identical traces.
//
// It keeps obs's volume rule, per message and never per frame: of the
// copies OnSend and OnReceive see for every retransmission, only the
// first MSG copy a process sends (FIRST_SEND) and the first it receives
// (RECV) of each message are recorded, so the default ring holds a
// whole run's lifecycle.
type TraceObserver struct {
	tr    *obs.Tracer
	n     int
	first map[firstKey]struct{}
}

type firstKey struct {
	kind obs.EventKind
	proc int
	id   wire.MsgID
}

var _ Observer = (*TraceObserver)(nil)

// NewTraceObserver builds the adapter for a run of n processes with a
// ring of the given capacity (0 selects obs.DefaultCapacity).
func NewTraceObserver(n, capacity int) *TraceObserver {
	return &TraceObserver{
		// Node -1: events carry the per-event process index instead.
		tr:    obs.New(-1, capacity, nil),
		n:     n,
		first: make(map[firstKey]struct{}),
	}
}

// Events returns the recorded events, oldest first.
func (o *TraceObserver) Events() []obs.Event { return o.tr.Events() }

// Run returns the recorded run, ring loss included.
func (o *TraceObserver) Run() obs.Run {
	return obs.Run{N: o.n, Dropped: o.tr.Dropped(), Events: o.tr.Events()}
}

// once records e for proc unless an event of its kind and message was
// already recorded there.
func (o *TraceObserver) once(t Time, proc int, e obs.Event) {
	k := firstKey{kind: e.Kind, proc: proc, id: e.Msg}
	if _, dup := o.first[k]; dup {
		return
	}
	o.first[k] = struct{}{}
	o.tr.EmitAt(t, proc, e)
}

// OnBroadcast implements Observer.
func (o *TraceObserver) OnBroadcast(t Time, proc int, id wire.MsgID) {
	o.tr.EmitAt(t, proc, obs.Event{Kind: obs.EvBroadcast, Msg: id})
}

// OnSend implements Observer.
func (o *TraceObserver) OnSend(t Time, src, dst int, m wire.Message, dropped bool, arriveAt Time) {
	if m.Kind == wire.KindMsg {
		o.once(t, src, obs.Event{Kind: obs.EvFirstSend, Msg: m.ID()})
	}
}

// OnReceive implements Observer.
func (o *TraceObserver) OnReceive(t Time, dst int, m wire.Message) {
	if m.Kind == wire.KindMsg {
		o.once(t, dst, obs.Event{Kind: obs.EvRecv, Msg: m.ID(), Have: int64(m.Kind)})
	}
}

// OnDeliver implements Observer.
func (o *TraceObserver) OnDeliver(t Time, proc int, d urb.Delivery) {
	o.tr.EmitAt(t, proc, deliverEvent(d))
}

// OnCrash implements Observer.
func (o *TraceObserver) OnCrash(t Time, proc int) {
	o.tr.EmitAt(t, proc, obs.Event{Kind: obs.EvCrash})
}

// OnRecover implements RecoverObserver: a CRASH with Need=1.
func (o *TraceObserver) OnRecover(t Time, proc int) {
	o.tr.EmitAt(t, proc, obs.Event{Kind: obs.EvCrash, Need: 1})
}

// OnJoin implements JoinObserver: SNAP_DONE, then one ADOPT per id the
// joiner took as already delivered.
func (o *TraceObserver) OnJoin(t Time, proc int, bytes int, adopted []wire.MsgID) {
	o.tr.EmitAt(t, proc, obs.Event{Kind: obs.EvSnapDone, Have: int64(bytes), Need: int64(bytes)})
	for _, id := range adopted {
		o.tr.EmitAt(t, proc, obs.Event{Kind: obs.EvAdopt, Msg: id})
	}
}

// OnLeave implements JoinObserver. A leave runs the crash path, which
// has already recorded its CRASH.
func (o *TraceObserver) OnLeave(Time, int) {}

func deliverEvent(d urb.Delivery) obs.Event {
	e := obs.Event{Kind: obs.EvDeliver, Msg: d.ID}
	if d.Fast {
		e.Have = 1
	}
	return e
}

// Check verifies the run against the URB properties (obs.Checker) from
// its ground truth: broadcasts, deliveries, final crash state and the
// history joiners adopted.
func (r Result) Check() *obs.Report {
	evs := make([]obs.Event, 0, len(r.Broadcasts))
	for _, b := range r.Broadcasts {
		evs = append(evs, obs.Event{At: b.At, Node: int32(b.Proc), Kind: obs.EvBroadcast, Msg: b.ID})
	}
	for p, ds := range r.Deliveries {
		for _, d := range ds {
			e := deliverEvent(d.Delivery)
			e.At, e.Node = d.At, int32(p)
			evs = append(evs, e)
		}
	}
	return obs.Checker{N: len(r.Deliveries), Crashed: r.Crashed, Adopted: r.Adopted}.Check(evs)
}
