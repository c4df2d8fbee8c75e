package obs

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"anonurb/internal/wire"
)

// TestChecker runs the URB checker over hand-built streams, one
// property failure (or legal corner) per row.
func TestChecker(t *testing.T) {
	m := mid(1, "a")
	ev := func(at int64, node int32, kind EventKind) Event {
		e := Event{At: at, Node: node, Kind: kind}
		if kind != EvCrash {
			e.Msg = m
		}
		return e
	}
	for _, tc := range []struct {
		name    string
		n       int
		crashed []bool
		adopted []map[wire.MsgID]bool
		prefix  bool
		evs     []Event
		want    []string // violated properties, in report order
	}{
		{name: "clean", n: 3, crashed: []bool{false, false, true}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(5, 0, EvDeliver), ev(6, 1, EvDeliver), ev(7, 2, EvDeliver), ev(8, 2, EvCrash),
		}},
		{name: "duplicate delivery", n: 1, crashed: []bool{false}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 0, EvDeliver), ev(3, 0, EvDeliver),
		}, want: []string{"uniform-integrity"}},
		{name: "phantom delivery", n: 1, crashed: []bool{false}, evs: []Event{
			ev(2, 0, EvDeliver),
		}, want: []string{"uniform-integrity"}},
		{name: "delivery before broadcast", n: 1, crashed: []bool{false}, evs: []Event{
			ev(2, 0, EvDeliver), ev(3, 0, EvBroadcast),
		}, want: []string{"causality"}},
		{name: "validity", n: 2, crashed: []bool{false, false}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(5, 1, EvDeliver),
		}, want: []string{"uniform-agreement", "validity"}},
		{name: "uniform agreement", n: 2, crashed: []bool{false, true}, evs: []Event{
			ev(1, 1, EvBroadcast), ev(2, 1, EvDeliver), ev(3, 1, EvCrash),
		}, want: []string{"uniform-agreement"}},
		{name: "faulty broadcaster owes nothing", n: 2, crashed: []bool{true, false}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 0, EvCrash),
		}},
		{name: "acting after crash", n: 1, crashed: []bool{true}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 0, EvCrash), ev(3, 0, EvDeliver),
		}, want: []string{"crash-model"}},
		{name: "deliver at the crash instant", n: 2, crashed: []bool{true, false}, evs: []Event{
			ev(1, 1, EvBroadcast), ev(2, 0, EvDeliver), ev(2, 0, EvCrash), ev(3, 1, EvDeliver),
		}},
		{name: "acting after recovery", n: 1, crashed: []bool{false}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 0, EvCrash), {At: 5, Kind: EvCrash, Need: 1}, ev(6, 0, EvFirstSend), ev(7, 0, EvDeliver),
		}},
		{name: "tag collision", n: 2, crashed: []bool{false, false}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 1, EvBroadcast), ev(3, 0, EvDeliver), ev(3, 1, EvDeliver),
		}, want: []string{"tag-uniqueness"}},
		{name: "adopted at join", n: 2, crashed: []bool{false, false}, adopted: []map[wire.MsgID]bool{nil, {m: true}}, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 0, EvDeliver),
		}},
		{name: "prefix skips eventual properties", n: 2, crashed: []bool{false, false}, prefix: true, evs: []Event{
			ev(1, 0, EvBroadcast), ev(2, 1, EvDeliver),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := Checker{N: tc.n, Crashed: tc.crashed, Adopted: tc.adopted, Prefix: tc.prefix}.Check(tc.evs)
			var got []string
			for _, v := range rep.Violations {
				got = append(got, v.Property)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("violations %v, want %v", rep.Violations, tc.want)
			}
		})
	}
}

// TestReportCounts checks the broadcast and (fast) delivery counters.
func TestReportCounts(t *testing.T) {
	m := mid(1, "a")
	rep := Checker{N: 1, Crashed: []bool{false}}.Check([]Event{
		{At: 1, Kind: EvBroadcast, Msg: m}, {At: 2, Kind: EvDeliver, Msg: m, Have: 1},
	})
	if !rep.OK() || rep.Broadcast != 1 || rep.TotalDeliveries != 1 || rep.FastDeliveries != 1 {
		t.Fatalf("report %+v", rep)
	}
}

// TestRunGroundTruth checks that Run.Check reads crashes, recoveries
// and adoptions from the stream, and refuses a wrapped ring.
func TestRunGroundTruth(t *testing.T) {
	m := mid(1, "a")
	run := Run{N: 3, Events: []Event{
		{At: 1, Node: 0, Kind: EvBroadcast, Msg: m},
		{At: 2, Node: 1, Kind: EvCrash},
		{At: 3, Node: 0, Kind: EvDeliver, Msg: m},
		{At: 4, Node: 1, Kind: EvCrash, Need: 1},
		{At: 5, Node: 2, Kind: EvAdopt, Msg: m},
		{At: 6, Node: 1, Kind: EvDeliver, Msg: m},
	}}
	if rep, err := run.Check(false); err != nil || !rep.OK() {
		t.Fatalf("clean run: %v %+v", err, rep)
	}
	run.Events = run.Events[:5] // p1 recovered, so it owes the delivery
	if rep, _ := run.Check(false); rep.OK() || rep.Violations[0].Property != "uniform-agreement" {
		t.Fatalf("recovered process held to nothing: %+v", rep)
	}
	run.Dropped = 1
	if _, err := run.Check(false); !errors.Is(err, ErrWrapped) {
		t.Fatalf("wrapped ring checked: %v", err)
	}
}

// TestChromeTraceRunRejects feeds ChromeTrace.Run files it cannot read
// a run from.
func TestChromeTraceRunRejects(t *testing.T) {
	for name, file := range map[string]string{
		"no run size":  `{"traceEvents":[{"name":"BROADCAST","ph":"i","ts":1,"pid":0}]}`,
		"unknown kind": `{"traceEvents":[{"name":"HELLO","ph":"i","ts":1,"pid":0}],"otherData":{"n":2}}`,
		"pid outside":  `{"traceEvents":[{"name":"CRASH","ph":"i","ts":1,"pid":2}],"otherData":{"n":2}}`,
		"short tag":    `{"traceEvents":[{"name":"DELIVER","ph":"i","ts":1,"pid":0,"args":{"tag":"01","body":""}}],"otherData":{"n":2}}`,
		"bad hex":      `{"traceEvents":[{"name":"DELIVER","ph":"i","ts":1,"pid":0,"args":{"tag":"0000000000000001000000000000000g","body":"!"}}],"otherData":{"n":2}}`,
	} {
		tr, err := ReadChromeTrace(strings.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := tr.Run(); err == nil {
			t.Errorf("%s: read a run", name)
		}
	}
}
