package replay

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/harness"
	"anonurb/internal/sim"
	"anonurb/internal/workload"
	"anonurb/internal/xrand"
)

// runScenario executes one simulator scenario.
func runScenario(wl workload.Broadcasts, seed uint64) harness.Outcome {
	return harness.Run(harness.Scenario{
		Name:          "replay-test",
		N:             5,
		Algo:          harness.AlgoMajority,
		Link:          channel.Bernoulli{P: 0.15, D: channel.UniformDelay{Min: 1, Max: 3}},
		Workload:      wl,
		Seed:          seed,
		MaxTime:       30_000,
		StopWhenQuiet: 300,
	})
}

// TestRecordReplayDeterminism is the tentpole's acceptance property:
// record a run's broadcast schedule, then replay the trace twice — the
// two replays must produce identical delivery sets on every process,
// and serialising the trace through the file format must not change
// that.
func TestRecordReplayDeterminism(t *testing.T) {
	orig := runScenario(workload.PoissonWriters{Count: 8, MeanGap: 15, Start: 5, BodyStamp: "r"}, 11)
	if !orig.DeliveredAll {
		t.Fatal("recorded run did not deliver everything")
	}
	rec := Record(5, orig.Result.Broadcasts)
	if len(rec.Entries) != 8 {
		t.Fatalf("recorded %d broadcasts, want 8", len(rec.Entries))
	}

	// Serialise through the trace format, as a real record/replay pair
	// would.
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sched, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	a := runScenario(Replayer{Schedule: sched}, 42)
	b := runScenario(Replayer{Schedule: sched}, 42)
	if !a.DeliveredAll || !b.DeliveredAll {
		t.Fatal("replayed runs did not deliver everything")
	}
	if !reflect.DeepEqual(a.Result.Deliveries, b.Result.Deliveries) {
		t.Fatal("two replays of one trace diverged")
	}
	// Re-recording a replay preserves the schedule's shape — broadcast
	// count, per-process attribution, sizes. (Digests differ by design:
	// replayed bodies are regenerated from the recorded digest, and the
	// regenerated bytes hash to a new one.)
	got, want := Record(5, a.Result.Broadcasts), sched
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("re-recorded %d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i].Proc != want.Entries[i].Proc ||
			got.Entries[i].Size != want.Entries[i].Size {
			t.Fatalf("entry %d changed across record→replay→record: %+v vs %+v",
				i, got.Entries[i], want.Entries[i])
		}
	}
}

// TestReplayerGenerate: the Replayer is a deterministic workload — the
// rng parameter is ignored and speed rescales the timeline.
func TestReplayerGenerate(t *testing.T) {
	s := testSchedule()
	r := Replayer{Schedule: s}
	a := r.Generate(5, xrand.New(1))
	b := r.Generate(5, xrand.New(999))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Replayer.Generate depends on the rng")
	}
	if len(a) != len(s.Entries) {
		t.Fatalf("%d broadcasts, want %d", len(a), len(s.Entries))
	}
	fast := Replayer{Schedule: s, Speed: 2}.Generate(5, nil)
	for i := range fast {
		if fast[i].At > a[i].At {
			t.Fatalf("speed 2 slowed entry %d: %d > %d", i, fast[i].At, a[i].At)
		}
		if !bytes.Equal(fast[i].Body, a[i].Body) {
			t.Fatalf("speed changed body %d", i)
		}
	}
}

// TestDrive: wall-clock replay hits every entry in order and respects
// cancellation.
func TestDrive(t *testing.T) {
	s := &Schedule{N: 3}
	for i := 0; i < 6; i++ {
		body := []byte{byte(i)}
		s.Entries = append(s.Entries, Entry{
			At: sim.Time(i), Proc: i % 3, Size: 1, Digest: BodyDigest(body),
		})
	}
	var procs []int
	err := Drive(context.Background(), s, 3, time.Microsecond, 1,
		func(proc int, body []byte) error {
			procs = append(procs, proc)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 6 {
		t.Fatalf("drove %d broadcasts, want 6", len(procs))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Drive(ctx, s, 3, time.Hour, 1, func(int, []byte) error { return nil }); err == nil {
		t.Fatal("cancelled Drive returned nil")
	}
}
