package obs

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// ChromeEvent is one entry of the Chrome trace-event format ("JSON
// Object Format"), the subset Perfetto and chrome://tracing load:
// instant events (ph "i") for lifecycle points and async begin/end
// pairs (ph "b"/"e") spanning broadcast→deliver per message per node.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	PID   int64             `json:"pid"`
	TID   int64             `json:"tid"`
	ID    string            `json:"id,omitempty"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object. OtherData is
// the format's free-form metadata object, which viewers ignore; it
// carries what the URB checker needs beyond the events.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
	OtherData       *RunInfo      `json:"otherData,omitempty"`
}

// RunInfo is a recorded run's size and ring loss (Run.N, Run.Dropped).
type RunInfo struct {
	N       int    `json:"n"`
	Dropped uint64 `json:"dropped"`
}

// WriteChromeTrace exports a run as Chrome trace-event JSON.
// Timestamps are emitted in microseconds: wall-clock nanoseconds are
// scaled down, virtual sim times are taken as microseconds directly
// (the caller picks via nanos).
func WriteChromeTrace(w io.Writer, run Run, nanos bool) error {
	return json.NewEncoder(w).Encode(BuildChromeTrace(run, nanos))
}

// BuildChromeTrace converts a run into the trace-event form. Every
// instant event names its message in full (args "tag" and base64
// "body"), and otherData is set when the run's size is known, so
// ChromeTrace.Run can read the run back for the checker.
func BuildChromeTrace(run Run, nanos bool) ChromeTrace {
	scale := 1.0
	if nanos {
		scale = 1e-3
	}
	tr := ChromeTrace{DisplayTimeUnit: "ms"}
	if run.N > 0 {
		tr.OtherData = &RunInfo{N: run.N, Dropped: run.Dropped}
	}
	open := make(map[string]bool) // msg|node with an open async span
	for _, e := range run.Events {
		ts := float64(e.At) * scale
		pid := int64(e.Node)
		ce := ChromeEvent{
			Name:  e.Kind.String(),
			Cat:   "urb",
			Phase: "i",
			Scope: "t",
			TS:    ts,
			PID:   pid,
		}
		ce.Args = make(map[string]string, 4)
		if e.Msg.Body != "" || !e.Msg.Tag.Zero() {
			ce.Args["msg"] = e.Msg.String()
			ce.Args["tag"] = fmt.Sprintf("%016x%016x", e.Msg.Tag.Hi, e.Msg.Tag.Lo)
			ce.Args["body"] = base64.StdEncoding.EncodeToString([]byte(e.Msg.Body))
		}
		switch e.Kind {
		case EvAckProgress:
			ce.Args["evidence"] = fmt.Sprintf("%d/%d", e.Have, e.Need)
			if !e.Aux.Zero() {
				ce.Args["label"] = e.Aux.String()
			}
		case EvAdmitDemote:
			ce.Args["flow"] = fmt.Sprintf("%#x", e.Flow)
		case EvSnapChunk:
			ce.Args["chunk"] = fmt.Sprintf("%d/%d", e.Have, e.Need)
		case EvRecv:
			ce.Args["kind"] = fmt.Sprintf("%d", e.Have)
		case EvDeliver:
			if e.Have == 1 {
				ce.Args["fast"] = "true"
			}
		case EvCrash:
			if e.Need == 1 {
				ce.Args["recover"] = "true"
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, ce)

		// Async spans: broadcast opens one span per message; each node's
		// delivery closes its own view of it.
		switch e.Kind {
		case EvBroadcast, EvRecv, EvFirstSend, EvAckProgress:
			key := spanKey(e)
			if e.Msg.Body == "" && e.Msg.Tag.Zero() {
				break
			}
			if !open[key] {
				open[key] = true
				tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
					Name: "urb:" + e.Msg.String(), Cat: "urb", Phase: "b",
					TS: ts, PID: pid, ID: e.Msg.String(),
				})
			}
		case EvDeliver:
			key := spanKey(e)
			if open[key] {
				delete(open, key)
				tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
					Name: "urb:" + e.Msg.String(), Cat: "urb", Phase: "e",
					TS: ts, PID: pid, ID: e.Msg.String(),
				})
			}
		}
	}
	return tr
}

func spanKey(e Event) string {
	return fmt.Sprintf("%d|%s", e.Node, e.Msg.String())
}

// ReadChromeTrace parses trace-event JSON produced by WriteChromeTrace
// (or any tool emitting the JSON Object Format).
func ReadChromeTrace(r io.Reader) (ChromeTrace, error) {
	var tr ChromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return tr, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	return tr, nil
}

// CheckChromeTrace validates the invariants the exporter guarantees and
// CI's round-trip smoke asserts: at least one event, and per-pid
// non-decreasing timestamps (the merged stream is emitted in time
// order).
func CheckChromeTrace(tr ChromeTrace) error {
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("obs: chrome trace has no events")
	}
	last := make(map[int64]float64)
	for i, e := range tr.TraceEvents {
		if e.Name == "" || e.Phase == "" {
			return fmt.Errorf("obs: chrome trace event %d missing name/ph", i)
		}
		if prev, ok := last[e.PID]; ok && e.TS < prev {
			return fmt.Errorf("obs: chrome trace event %d (pid %d) goes back in time: %g < %g", i, e.PID, e.TS, prev)
		}
		last[e.PID] = e.TS
	}
	return nil
}

// Run reads back the run a simulator trace carries: the size and ring
// loss from otherData, and from each instant event the fields the
// checker reads — kind, node, time, message id, DELIVER's fast flag and
// CRASH's recovery mark. Async spans are skipped.
func (tr ChromeTrace) Run() (Run, error) {
	if tr.OtherData == nil || tr.OtherData.N < 1 {
		return Run{}, errors.New("obs: chrome trace carries no run size (otherData.n)")
	}
	run := Run{N: tr.OtherData.N, Dropped: tr.OtherData.Dropped}
	for i, ce := range tr.TraceEvents {
		if ce.Phase != "i" {
			continue
		}
		e := Event{At: int64(math.Round(ce.TS)), Node: int32(ce.PID)}
		for k := EvNone + 1; k.String() != "NONE"; k++ {
			if k.String() == ce.Name {
				e.Kind = k
			}
		}
		if e.Kind == EvNone || ce.PID < 0 || ce.PID >= int64(run.N) {
			return Run{}, fmt.Errorf("obs: chrome trace event %d: %q at pid %d is not a run event", i, ce.Name, ce.PID)
		}
		if tag, ok := ce.Args["tag"]; ok {
			var err error
			if e.Msg, err = parseMsgID(tag, ce.Args["body"]); err != nil {
				return Run{}, fmt.Errorf("obs: chrome trace event %d: %w", i, err)
			}
		}
		if ce.Args["fast"] == "true" {
			e.Have = 1
		}
		if ce.Args["recover"] == "true" {
			e.Need = 1
		}
		run.Events = append(run.Events, e)
	}
	return run, nil
}

// parseMsgID reads back a message id as BuildChromeTrace writes it.
func parseMsgID(tag, body string) (wire.MsgID, error) {
	b, err := base64.StdEncoding.DecodeString(body)
	if err != nil || len(tag) != 32 {
		return wire.MsgID{}, fmt.Errorf("bad message id %q/%q", tag, body)
	}
	hi, err1 := strconv.ParseUint(tag[:16], 16, 64)
	lo, err2 := strconv.ParseUint(tag[16:], 16, 64)
	return wire.MsgID{Tag: ident.Tag{Hi: hi, Lo: lo}, Body: string(b)}, errors.Join(err1, err2)
}
