package obs

import (
	"errors"
	"fmt"
	"sort"

	"anonurb/internal/wire"
)

// The URB checker is the referee of a recorded run: it reads ground
// truth the algorithms never see (who broadcast what, who crashed) and
// checks the properties of Section II of the paper — validity, uniform
// agreement, uniform integrity — plus tag uniqueness, causality and the
// crash model. Validity and uniform agreement are eventual properties;
// on a finite stream they are checked at its end, so they mean
// something only for runs given enough time to converge.

// Violation describes one property failure found by a Checker.
type Violation struct {
	Property string
	Detail   string
}

// Error renders the violation.
func (v Violation) Error() string { return v.Property + ": " + v.Detail }

// Report is the outcome of checking one run.
type Report struct {
	// Violations are ordered by property, then detail.
	Violations []Violation
	// Broadcast counts distinct URB-broadcast messages.
	Broadcast int
	// FastDeliveries counts deliveries made before any MSG copy reached
	// the deliverer; TotalDeliveries counts all deliveries.
	FastDeliveries  int
	TotalDeliveries int
}

// OK reports whether no property was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns the first violation as an error, or nil.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return r.Violations[0]
}

func (r *Report) add(property, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Property: property, Detail: fmt.Sprintf(format, args...)})
}

// Checker checks an event stream of N processes against the URB
// properties. It reads BROADCAST, DELIVER (Have==1: fast), FIRST_SEND
// and CRASH (Need==1: the process recovered) and ignores other kinds.
type Checker struct {
	N int
	// Crashed[i] reports that process i crashed and stayed down; every
	// other process is correct in the run.
	Crashed []bool
	// Adopted[i], when non-nil, holds the ids process i adopted as
	// already delivered when it joined (DESIGN.md §13). Adoption commits
	// the joiner to never delivering them, so uniform agreement counts
	// them as met without a delivery event.
	Adopted []map[wire.MsgID]bool
	// Prefix marks a stream that ends before the run converged: the
	// eventual properties are skipped.
	Prefix bool
}

// Check runs every applicable property check over evs. The crash model
// is read in stream order, so a stream with CRASH events must be in
// time order (as a tracer or Merge returns it).
func (c Checker) Check(evs []Event) *Report {
	rep := &Report{}
	origin := make(map[wire.MsgID]int32)
	broadcastAt := make(map[wire.MsgID]int64)
	for _, e := range evs {
		if e.Kind != EvBroadcast {
			continue
		}
		if prev, dup := origin[e.Msg]; dup {
			rep.add("tag-uniqueness", "message %v broadcast twice (p%d then p%d): tag collision", e.Msg, prev, e.Node)
		}
		origin[e.Msg] = e.Node
		broadcastAt[e.Msg] = e.At
		rep.Broadcast++
	}

	type key struct {
		node int32
		id   wire.MsgID
	}
	delivered := make(map[key]int)
	deliverers := make(map[wire.MsgID]int)
	downAt := make(map[int32]int64)
	for _, e := range evs {
		if at, down := downAt[e.Node]; down && e.At > at &&
			(e.Kind == EvDeliver || e.Kind == EvBroadcast || e.Kind == EvFirstSend) {
			rep.add("crash-model", "p%d %s at %d after crashing at %d", e.Node, e.Kind, e.At, at)
		}
		switch e.Kind {
		case EvCrash:
			if e.Need == 1 {
				delete(downAt, e.Node)
			} else {
				downAt[e.Node] = e.At
			}
		case EvDeliver:
			rep.TotalDeliveries++
			if e.Have == 1 {
				rep.FastDeliveries++
			}
			k := key{e.Node, e.Msg}
			if delivered[k]++; delivered[k] > 1 {
				rep.add("uniform-integrity", "p%d delivered %v %d times", e.Node, e.Msg, delivered[k])
			} else {
				deliverers[e.Msg]++
			}
			if bt, ok := broadcastAt[e.Msg]; !ok {
				rep.add("uniform-integrity", "p%d delivered %v which was never URB-broadcast", e.Node, e.Msg)
			} else if e.At < bt {
				rep.add("causality", "p%d delivered %v at %d before its broadcast at %d", e.Node, e.Msg, e.At, bt)
			}
		}
	}

	if !c.Prefix {
		for id, p := range origin {
			if !c.Crashed[p] && delivered[key{p, id}] == 0 {
				rep.add("validity", "correct broadcaster p%d never delivered its own %v", p, id)
			}
		}
		for id, count := range deliverers {
			for p := 0; p < c.N; p++ {
				if c.Crashed[p] || delivered[key{int32(p), id}] > 0 || (p < len(c.Adopted) && c.Adopted[p][id]) {
					continue
				}
				rep.add("uniform-agreement", "%v delivered by %d process(es) but correct p%d never delivered it", id, count, p)
			}
		}
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		return a.Property < b.Property || a.Property == b.Property && a.Detail < b.Detail
	})
	return rep
}

// Run is one recorded simulator run: the event stream of the whole
// cluster, its size, and how many events the ring overwrote. It is what
// WriteChromeTrace exports and ChromeTrace.Run reads back.
type Run struct {
	// N is the number of processes (0 when unknown, e.g. a live
	// cluster's merged trace).
	N       int
	Dropped uint64
	Events  []Event
}

// ErrWrapped refuses a stream whose ring overwrote its oldest events:
// the lost BROADCAST and DELIVER events would read as agreement
// violations.
var ErrWrapped = errors.New("obs: the trace ring wrapped and lost its oldest events")

// Check checks the run with ground truth read from the stream itself: a
// process whose last CRASH is not a recovery crashed, and ADOPT events
// fill the adopted-at-join credit.
func (r Run) Check(prefix bool) (*Report, error) {
	if r.Dropped > 0 {
		return nil, fmt.Errorf("%w (%d events)", ErrWrapped, r.Dropped)
	}
	if r.N < 1 {
		return nil, errors.New("obs: the run's size is unknown")
	}
	c := Checker{N: r.N, Crashed: make([]bool, r.N), Adopted: make([]map[wire.MsgID]bool, r.N), Prefix: prefix}
	for _, e := range r.Events {
		switch e.Kind {
		case EvCrash:
			c.Crashed[e.Node] = e.Need != 1
		case EvAdopt:
			if c.Adopted[e.Node] == nil {
				c.Adopted[e.Node] = make(map[wire.MsgID]bool)
			}
			c.Adopted[e.Node][e.Msg] = true
		}
	}
	return c.Check(r.Events), nil
}
