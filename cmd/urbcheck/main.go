// Command urbcheck verifies a recorded run against the URB specification
// (internal/obs's checker): validity, uniform agreement, uniform
// integrity, tag uniqueness, causality and the crash model. The run is
// the Chrome trace-event JSON file urbsim -trace-out writes; urbcheck
// first validates it as a trace (valid JSON, required fields,
// per-process monotone timestamps), then checks the run it carries.
// With -snapshot it instead verifies a saved durable-state snapshot
// (DESIGN.md §9): the codec version, the structure, and the embedded
// fingerprint digest.
//
// Usage:
//
//	urbsim ... -trace-out t.json && urbcheck t.json
//	urbcheck -truncated t.json    # a run prefix: skip the eventual properties
//	urbcheck -selftest            # record a lossy, crashing run and check its trace
//	urbcheck -snapshot snapshot.bin   # verify a durable-state snapshot
//	urbcheck -explain             # stall-explainer demo on a partitioned cluster
//
// -snapshot accepts both a store container file (a File store's
// snapshot.bin) and a raw snapshot payload (urb.Snapshotter output).
//
// -explain runs a built-in majority cluster whose broadcast stalls — a
// majority of the ackers is partitioned away — and prints the stall
// explainer's report (DESIGN.md §14): which delivery evidence is
// missing, named exactly. Exit 0 iff the explainer names the shortfall.
//
// Exit status: 0 if all properties hold, 1 if the trace is invalid or a
// property is violated, 2 on usage errors, unreadable input, or a trace
// that cannot be checked (no run size, or a ring that wrapped and lost
// events).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"anonurb/internal/channel"
	"anonurb/internal/obs"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/urb"
)

func main() {
	selftest := flag.Bool("selftest", false, "record a lossy, crashing run in-process and check its trace")
	truncated := flag.Bool("truncated", false, "trace is a run prefix: skip the eventual properties")
	snapshot := flag.String("snapshot", "", "verify a durable-state snapshot file instead of a trace")
	explain := flag.Bool("explain", false, "run the stall-explainer demo: a partitioned cluster, the report names the missing evidence")
	flag.Parse()

	switch {
	case *snapshot != "":
		os.Exit(checkSnapshot(*snapshot))
	case *explain:
		os.Exit(explainDemo())
	case *selftest:
		os.Exit(checkTrace(os.Stdout, os.Stderr, selftestTrace(), *truncated))
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbcheck: %v\n", err)
			os.Exit(2)
		}
		code := checkTrace(os.Stdout, os.Stderr, f, *truncated)
		f.Close()
		os.Exit(code)
	}
	fmt.Fprintln(os.Stderr, "usage: urbcheck [-truncated] trace.json | urbcheck -selftest | urbcheck -snapshot snapshot.bin | urbcheck -explain")
	os.Exit(2)
}

// checkTrace validates a Chrome trace-event file, then checks the run
// it carries, and returns the exit status. Verdicts go to stdout, the
// reasons a trace cannot be checked to stderr.
func checkTrace(stdout, stderr io.Writer, r io.Reader, truncated bool) int {
	tr, err := obs.ReadChromeTrace(r)
	if err == nil {
		err = obs.CheckChromeTrace(tr)
	}
	if err != nil {
		fmt.Fprintf(stdout, "verdict  : INVALID — %v\n", err)
		return 1
	}
	run, err := tr.Run()
	var rep *obs.Report
	if err == nil {
		rep, err = run.Check(truncated)
	}
	if err != nil {
		fmt.Fprintf(stderr, "urbcheck: cannot check this trace: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "trace    : valid Chrome trace-event JSON; n=%d, %d events, %d broadcasts, %d deliveries (%d fast)\n",
		run.N, len(run.Events), rep.Broadcast, rep.TotalDeliveries, rep.FastDeliveries)
	if rep.OK() {
		fmt.Fprintln(stdout, "verdict  : all URB properties hold")
		return 0
	}
	fmt.Fprintf(stdout, "verdict  : %d violation(s)\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  - %s\n", v.Error())
	}
	return 1
}

// checkSnapshot decodes and verifies a durable-state snapshot and
// returns the process exit code: 0 for a healthy snapshot, 1 for
// corruption or a version/kind mismatch, 2 for unreadable input.
func checkSnapshot(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbcheck: %v\n", err)
		return 2
	}
	// A store container (snapshot.bin) wraps the payload in framing and
	// a checksum of its own; unwrap it first so both layers get checked.
	if store.IsSnapshotFile(data) {
		payload, err := store.ParseSnapshotFile(data)
		if err != nil {
			fmt.Printf("snapshot : %s (%d bytes, store container)\n", path, len(data))
			fmt.Printf("verdict  : CORRUPT — %v\n", err)
			return 1
		}
		fmt.Printf("snapshot : %s (%d bytes, store container; payload %d bytes)\n", path, len(data), len(payload))
		data = payload
	} else {
		fmt.Printf("snapshot : %s (%d bytes, raw payload)\n", path, len(data))
	}
	info, err := urb.VerifySnapshot(data)
	if err != nil {
		switch {
		case errors.Is(err, urb.ErrSnapshotVersion):
			fmt.Printf("verdict  : VERSION MISMATCH — codec version %d is not supported\n", info.Version)
		case errors.Is(err, urb.ErrSnapshotCorrupt):
			fmt.Println("verdict  : CORRUPT — recomputed fingerprint digest does not match the stored one")
		default:
			fmt.Printf("verdict  : CORRUPT — %v\n", err)
		}
		return 1
	}
	fmt.Printf("kind     : %s (codec v%d)\n", info.Kind, info.Version)
	if info.Kind == "majority" {
		fmt.Printf("system   : n=%d, threshold=%d\n", info.N, info.Threshold)
	}
	fmt.Printf("config   : %+v\n", info.Config)
	fmt.Printf("state    : msgs=%d delivered=%d acked=%d ackEntries=%d retired=%d draws=%d\n",
		info.Stats.MsgSet, info.Stats.Delivered, info.Stats.MyAcks,
		info.Stats.AckEntries, info.Stats.Retired, info.Draws)
	fmt.Printf("digest   : %016x (recomputed fingerprint digest matches)\n", info.Digest)
	fmt.Println("verdict  : snapshot is healthy")
	return 0
}

// explainDemo runs the stall scenario and prints the explainer's
// report, returning the exit code.
func explainDemo() int {
	ex, ok := runExplainDemo()
	fmt.Printf("scenario : n=5 majority, 3 processes partitioned away before the broadcast\n")
	fmt.Println(ex)
	if !ok {
		fmt.Println("verdict  : explainer FAILED to name the missing evidence")
		return 1
	}
	fmt.Printf("verdict  : stall explained — %d/%d ackers, %d more needed for the majority guard\n",
		ex.Ackers, ex.Need, ex.Need-ex.Ackers)
	return 0
}

// runExplainDemo builds a 5-process majority cluster, partitions 3
// processes away (as crashes at t=1, before the broadcast at t=5), runs
// the simulator to its horizon and asks the broadcaster's process to
// explain the undelivered message. ok reports whether the explanation
// names the evidence shortfall: known, not delivered, ackers < need.
func runExplainDemo() (ex obs.Explanation, ok bool) {
	const n = 5
	var procs []*urb.Majority
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			p := urb.NewMajority(n, env.Tags, urb.Config{})
			procs = append(procs, p)
			return p
		},
		Link:       channel.Bernoulli{P: 0, D: channel.UniformDelay{Min: 1, Max: 2}},
		Seed:       2015,
		MaxTime:    2_000,
		CrashAt:    []sim.Time{sim.Never, sim.Never, 1, 1, 1},
		Broadcasts: []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("stalled")}},
	}).Run()
	for _, ds := range res.Deliveries {
		if len(ds) != 0 {
			return ex, false // a partitioned majority must not deliver
		}
	}
	ex = procs[0].Explain(res.Broadcasts[0].ID)
	return ex, ex.Known && ex.Stalled() && ex.Ackers > 0 && ex.Ackers < ex.Need
}

// selftestTrace records a small lossy run in which two of five
// processes crash mid-dissemination and returns its Chrome trace, so
// the self-test goes through the same validation and checking as a
// trace file.
func selftestTrace() io.Reader {
	const n = 5
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:    channel.Bernoulli{P: 0.25, D: channel.UniformDelay{Min: 1, Max: 5}},
		Seed:    2015,
		MaxTime: 100_000,
		CrashAt: []sim.Time{sim.Never, sim.Never, sim.Never, 60, 80},
		Broadcasts: []sim.ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("selftest-a")},
			{At: 9, Proc: 1, Body: []byte("selftest-b")},
		},
		ExpectDeliveries:  2,
		NoEarlyStopBefore: 100,
		TraceRing:         obs.DefaultCapacity,
	}).Run()
	var buf bytes.Buffer
	obs.WriteChromeTrace(&buf, res.Trace, false)
	return &buf
}
