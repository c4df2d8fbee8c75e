package main

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/harness"
	"anonurb/internal/obs"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/workload"
	"anonurb/internal/xrand"
)

// TestExplainDemoNamesMissingEvidence is the ISSUE-9 acceptance test:
// on a cluster with partitioned ackers, the stall explainer must name
// the evidence the undelivered message is missing.
func TestExplainDemoNamesMissingEvidence(t *testing.T) {
	ex, ok := runExplainDemo()
	if !ok {
		t.Fatalf("demo did not produce a stalled explanation: %+v", ex)
	}
	if ex.Delivered {
		t.Fatal("partitioned cluster delivered")
	}
	if ex.Ackers != 2 || ex.Need != 3 {
		t.Fatalf("evidence = %d/%d ackers, want 2/3 (two reachable processes, majority of 5)", ex.Ackers, ex.Need)
	}
	rep := ex.String()
	if !strings.Contains(rep, "NOT delivered") ||
		!strings.Contains(rep, "2/3 distinct tag_acks") ||
		!strings.Contains(rep, "missing 1 acker(s) for the majority guard") {
		t.Fatalf("report does not name the missing evidence:\n%s", rep)
	}
}

// theorem2Link is the run R2 network of examples/impossibility:
// reliable inside each half, a black hole across.
type theorem2Link struct{ s1 int }

func (l theorem2Link) Judge(_ int64, src, dst int, _ uint64, _ *xrand.Source) channel.Verdict {
	return channel.Verdict{Drop: (src < l.s1) != (dst < l.s1), Delay: 2}
}

func (l theorem2Link) String() string { return "theorem2" }

// checkerView keeps the fields of an event that the Chrome trace
// carries back to the checker.
func checkerView(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, len(evs))
	for i, e := range evs {
		v := obs.Event{At: e.At, Node: e.Node, Kind: e.Kind, Msg: e.Msg}
		switch e.Kind {
		case obs.EvDeliver:
			v.Have = e.Have
		case obs.EvCrash:
			v.Need = e.Need
		}
		out[i] = v
	}
	return out
}

// TestTraceRoundTrip records simulator runs, writes each as the Chrome
// trace urbsim -trace-out writes, and checks that the file reads back
// to the same checker events and the same report as checking the run
// in memory, and that urbcheck's file check exits with the matching
// status.
func TestTraceRoundTrip(t *testing.T) {
	majority := func(n int) sim.Factory {
		return func(env sim.Env) urb.Process { return urb.NewMajority(n, env.Tags, urb.Config{}) }
	}
	lossy := channel.Bernoulli{P: 0.3, D: channel.UniformDelay{Min: 1, Max: 6}}
	never := sim.Never
	for _, tc := range []struct {
		name string
		// capacity is each process's ring size (0: obs default).
		capacity int
		cfg      sim.Config
		// scenario, when set, builds cfg through the harness.
		scenario *harness.Scenario
		exit     int
		want     func(t *testing.T, run obs.Run, rep *obs.Report) // extra checks
		output   string
	}{
		{name: "fast/recover/leave", cfg: sim.Config{
			N: 5, Factory: majority(5), Link: lossy, Seed: 4, MaxTime: 50_000,
			CrashAt:   []sim.Time{60, never, never, never, never},
			RecoverAt: []sim.Time{300, never, never, never, never},
			Stores:    []store.Store{store.NewMem(), nil, nil, nil, nil},
			LeaveAt:   []sim.Time{0, 0, 0, 0, 200},
			Broadcasts: []sim.ScheduledBroadcast{
				{At: 5, Proc: 0, Body: []byte("a")}, {At: 7, Proc: 1, Body: []byte("b")},
				{At: 9, Proc: 2, Body: []byte("c")}, {At: 400, Proc: 3, Body: []byte("d")},
			},
			ExpectDeliveries: 4,
		}, want: func(t *testing.T, run obs.Run, rep *obs.Report) {
			var crashes, recovers int
			for _, e := range run.Events {
				if e.Kind == obs.EvCrash {
					crashes++
					recovers += int(e.Need)
				}
			}
			if rep.FastDeliveries == 0 || crashes != 3 || recovers != 1 {
				t.Fatalf("want a fast delivery, a crash, a recovery and a leave: %d fast, %d CRASH (%d recoveries)",
					rep.FastDeliveries, crashes, recovers)
			}
		}, output: "all URB properties hold"},
		{name: "binary and empty bodies", cfg: sim.Config{
			N: 3, Factory: majority(3), Link: lossy, Seed: 77, MaxTime: 20_000,
			Broadcasts: []sim.ScheduledBroadcast{
				{At: 5, Proc: 0, Body: []byte{0xff, 0x00, 0xfe}}, {At: 6, Proc: 1, Body: []byte{}},
				{At: 7, Proc: 2, Body: []byte("plain")},
			},
			ExpectDeliveries: 3,
		}, want: func(t *testing.T, run obs.Run, rep *obs.Report) {
			bodies := map[string]bool{}
			for _, e := range run.Events {
				if e.Kind == obs.EvBroadcast {
					bodies[e.Msg.Body] = true
				}
			}
			if len(bodies) != 3 || !bodies["\xff\x00\xfe"] || !bodies[""] {
				t.Fatalf("bodies after the round trip: %v", bodies)
			}
		}, output: "all URB properties hold"},
		{name: "wrapped ring", capacity: 4, cfg: sim.Config{
			N: 3, Factory: majority(3), Link: lossy, Seed: 5, MaxTime: 20_000,
			Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("x")}, {At: 9, Proc: 1, Body: []byte("y")}},
			ExpectDeliveries: 2,
		}, exit: 2, output: "wrapped"},
		{name: "theorem 2", scenario: &harness.Scenario{
			Name: "impossibility", N: 4, Algo: harness.AlgoMajorityLowered, Link: theorem2Link{s1: 2},
			Workload:             workload.SingleShot{At: 2, Proc: 0, Body: []byte("m")},
			CrashAfterDeliveries: []int{1, 1, 0, 0}, Seed: 2015, MaxTime: 1_500,
		}, exit: 1, output: "uniform-agreement"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.scenario != nil {
				cfg, _ = tc.scenario.Build()
			}
			cfg.TraceRing = obs.DefaultCapacity
			if tc.capacity > 0 {
				cfg.TraceRing = tc.capacity
			}
			res := sim.NewEngine(cfg).Run()

			mem := res.Trace
			var buf bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, mem, false); err != nil {
				t.Fatal(err)
			}
			tr, err := obs.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			file, err := tr.Run()
			if err != nil {
				t.Fatal(err)
			}
			if file.N != mem.N || file.Dropped != mem.Dropped || !reflect.DeepEqual(file.Events, checkerView(mem.Events)) {
				t.Fatalf("the trace file reads back a different run")
			}

			var stdout, stderr bytes.Buffer
			if got := checkTrace(&stdout, &stderr, &buf, false); got != tc.exit {
				t.Fatalf("urbcheck exit %d, want %d\n%s%s", got, tc.exit, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String()+stderr.String(), tc.output) {
				t.Fatalf("urbcheck output lacks %q:\n%s%s", tc.output, stdout.String(), stderr.String())
			}
			if tc.exit == 2 {
				if _, err := file.Check(false); !errors.Is(err, obs.ErrWrapped) {
					t.Fatalf("wrapped ring checked: %v", err)
				}
				return
			}
			rep, err := file.Check(false)
			if err != nil {
				t.Fatal(err)
			}
			inMemory, _ := mem.Check(false)
			if !reflect.DeepEqual(rep, inMemory) || !reflect.DeepEqual(rep, res.Check()) {
				t.Fatalf("reports differ:\n file   %+v\n memory %+v\n result %+v", rep, inMemory, res.Check())
			}
			if tc.want != nil {
				tc.want(t, file, rep)
			}
		})
	}
}

// TestSelftest runs urbcheck -selftest: a lossy run with two crashes,
// written as a trace, validated and checked.
func TestSelftest(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := checkTrace(&stdout, &stderr, selftestTrace(), false); got != 0 {
		t.Fatalf("selftest exit %d:\n%s%s", got, stdout.String(), stderr.String())
	}
}
