package sim

import "anonurb/internal/obs"

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
			e := obs.Event{At: d.At, Node: int32(p), Kind: obs.EvDeliver, Msg: d.ID}
			if d.Fast {
				e.Have = 1
			}
			evs = append(evs, e)
		}
	}
	return obs.Checker{N: len(r.Deliveries), Crashed: r.Crashed, Adopted: r.Adopted}.Check(evs)
}
