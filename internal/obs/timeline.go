package obs

import (
	"fmt"
	"io"
	"sort"

	"anonurb/internal/wire"
)

// EvidencePoint is one sample of the evidence-accumulation curve: at
// time At, node Node held Have of the Need units the delivery guard
// requires.
type EvidencePoint struct {
	At   int64
	Node int32
	Have int64
	Need int64
}

// NodeStamp is a per-node timestamped lifecycle point.
type NodeStamp struct {
	Node int32
	At   int64
}

// Timeline is one message's reconstructed lifecycle across every node
// whose events are in the analysed stream.
type Timeline struct {
	Msg wire.MsgID
	// BroadcastAt is the URB_broadcast time at the origin (0 when the
	// stream starts after the broadcast, e.g. a wrapped ring).
	BroadcastAt   int64
	BroadcastNode int32
	// FirstSendAt is the first wire transmission of the MSG frame
	// anywhere.
	FirstSendAt int64
	// Delivers holds every node's URB_deliver time, ordered by time.
	Delivers []NodeStamp
	// Retires holds every node's retirement time (Algorithm 2).
	Retires []NodeStamp
	// Evidence is the accumulation curve, in stream order.
	Evidence []EvidencePoint
	seen     bool // BroadcastAt observed (0 is a valid virtual time)
}

// Latency reports the true broadcast→deliver latency for the i-th
// delivery, in clock units, and whether it is computable (the stream
// must contain the BROADCAST event).
func (tl *Timeline) Latency(i int) (int64, bool) {
	if !tl.seen || i >= len(tl.Delivers) {
		return 0, false
	}
	return tl.Delivers[i].At - tl.BroadcastAt, true
}

// Stalled reports whether the message was broadcast (or seen) but some
// activity suggests nodes that have not delivered: there are fewer
// deliveries than distinct nodes appearing in the stream.
func (tl *Timeline) Stalled(nodes int) bool {
	return len(tl.Delivers) < nodes
}

// Timelines groups an event stream into per-message timelines, ordered
// by first appearance in the stream. Node-scoped events (ADMIT_DEMOTE,
// SNAP_*, CRASH) and ADOPT are skipped.
func Timelines(evs []Event) []*Timeline {
	byMsg := make(map[wire.MsgID]*Timeline)
	var order []*Timeline
	get := func(id wire.MsgID) *Timeline {
		tl, ok := byMsg[id]
		if !ok {
			tl = &Timeline{Msg: id}
			byMsg[id] = tl
			order = append(order, tl)
		}
		return tl
	}
	for _, e := range evs {
		switch e.Kind {
		case EvBroadcast:
			tl := get(e.Msg)
			if !tl.seen {
				tl.seen = true
				tl.BroadcastAt = e.At
				tl.BroadcastNode = e.Node
			}
		case EvFirstSend:
			tl := get(e.Msg)
			if tl.FirstSendAt == 0 {
				tl.FirstSendAt = e.At
			}
		case EvAckProgress:
			tl := get(e.Msg)
			tl.Evidence = append(tl.Evidence, EvidencePoint{At: e.At, Node: e.Node, Have: e.Have, Need: e.Need})
		case EvDeliver:
			tl := get(e.Msg)
			tl.Delivers = append(tl.Delivers, NodeStamp{Node: e.Node, At: e.At})
		case EvRetire:
			tl := get(e.Msg)
			tl.Retires = append(tl.Retires, NodeStamp{Node: e.Node, At: e.At})
		}
	}
	for _, tl := range order {
		sort.Slice(tl.Delivers, func(i, j int) bool { return tl.Delivers[i].At < tl.Delivers[j].At })
		sort.Slice(tl.Retires, func(i, j int) bool { return tl.Retires[i].At < tl.Retires[j].At })
	}
	return order
}

// WriteReport renders a human-readable report of an event stream: one
// block per message with its lifecycle, true broadcast→deliver
// latencies and the evidence-accumulation curve, followed by the
// node-scoped events.
func WriteReport(w io.Writer, evs []Event) error {
	tls := Timelines(evs)
	for _, tl := range tls {
		if _, err := fmt.Fprintf(w, "msg %s\n", tl.Msg); err != nil {
			return err
		}
		if tl.seen {
			fmt.Fprintf(w, "  broadcast  t=%d node=%d\n", tl.BroadcastAt, tl.BroadcastNode)
		}
		if tl.FirstSendAt != 0 {
			fmt.Fprintf(w, "  first-send t=%d\n", tl.FirstSendAt)
		}
		for i, d := range tl.Delivers {
			if lat, ok := tl.Latency(i); ok {
				fmt.Fprintf(w, "  deliver    t=%d node=%d latency=%d\n", d.At, d.Node, lat)
			} else {
				fmt.Fprintf(w, "  deliver    t=%d node=%d\n", d.At, d.Node)
			}
		}
		for _, r := range tl.Retires {
			fmt.Fprintf(w, "  retire     t=%d node=%d\n", r.At, r.Node)
		}
		if len(tl.Evidence) > 0 {
			fmt.Fprintf(w, "  evidence  ")
			for _, p := range curveSamples(tl.Evidence, 8) {
				fmt.Fprintf(w, " %d/%d@t=%d", p.Have, p.Need, p.At)
			}
			fmt.Fprintln(w)
		}
	}
	for _, e := range evs {
		switch e.Kind {
		case EvAdmitDemote:
			fmt.Fprintf(w, "admit-demote t=%d node=%d flow=%#x\n", e.At, e.Node, e.Flow)
		case EvSnapReq, EvSnapChunk, EvSnapDone:
			fmt.Fprintf(w, "%s t=%d node=%d off=%d total=%d\n", e.Kind, e.At, e.Node, e.Have, e.Need)
		case EvCrash:
			what := "crash"
			if e.Need == 1 {
				what = "recover"
			}
			fmt.Fprintf(w, "%s t=%d node=%d\n", what, e.At, e.Node)
		}
	}
	return nil
}

// curveSamples thins an evidence curve to at most max points, always
// keeping the first and last.
func curveSamples(c []EvidencePoint, max int) []EvidencePoint {
	if len(c) <= max || max < 2 {
		return c
	}
	out := make([]EvidencePoint, 0, max)
	step := float64(len(c)-1) / float64(max-1)
	for i := 0; i < max; i++ {
		out = append(out, c[int(float64(i)*step+0.5)])
	}
	out[max-1] = c[len(c)-1]
	return out
}
