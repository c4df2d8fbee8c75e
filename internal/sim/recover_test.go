package sim

import (
	"errors"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/obs"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// assertNoDuplicateDeliveries fails if any process delivered an ID twice
// (uniform integrity — across restarts included).
func assertNoDuplicateDeliveries(t *testing.T, res Result) {
	t.Helper()
	for i, ds := range res.Deliveries {
		seen := make(map[wire.MsgID]bool)
		for _, d := range ds {
			if seen[d.ID] {
				t.Fatalf("proc %d delivered %v twice", i, d.ID)
			}
			seen[d.ID] = true
		}
	}
}

// TestSimCrashRecoverMajority: a process crashes mid-run, restarts from
// its store, and the run converges with uniform agreement intact — the
// recovered process delivers everything, re-delivers nothing.
func TestSimCrashRecoverMajority(t *testing.T) {
	const n = 5
	stores := make([]store.Store, n)
	stores[0] = store.NewMem()
	res := NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:            channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:            2015,
		MaxTime:         100_000,
		CrashAt:         []Time{60, Never, Never, Never, Never},
		RecoverAt:       []Time{400, Never, Never, Never, Never},
		Stores:          stores,
		CheckpointEvery: 50,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("from-the-crasher")},
			{At: 9, Proc: 1, Body: []byte("from-a-survivor")},
			{At: 500, Proc: 2, Body: []byte("after-recovery")},
		},
		ExpectDeliveries: 3,
	}).Run()

	if !res.Recovered[0] {
		t.Fatal("proc 0 did not recover")
	}
	if res.Crashed[0] {
		t.Fatal("a recovered process must not report crashed")
	}
	assertNoDuplicateDeliveries(t, res)
	// Uniform agreement in the crash-recovery reading: every process that
	// ended the run live — the recovered one included — delivered all
	// three messages.
	for i := 0; i < n; i++ {
		if res.Crashed[i] {
			continue
		}
		if got := len(res.Deliveries[i]); got != 3 {
			t.Fatalf("proc %d delivered %d/3 messages", i, got)
		}
	}
	// The recovered process's pre-crash deliveries survived: its list
	// contains the pre-crash message exactly once even though the crash
	// landed right after dissemination began.
	if len(res.Deliveries[0]) != 3 {
		t.Fatalf("recovered proc delivered %d/3", len(res.Deliveries[0]))
	}
}

// TestSimCrashRecoverQuiescent: Algorithm 2 with the oracle, one process
// crash-recovering. The recovered process counts as correct, so the
// oracle keeps its label trusted; after recovery it re-acks under its
// pinned tag_acks and the cluster still retires everything and falls
// silent.
func TestSimCrashRecoverQuiescent(t *testing.T) {
	// Paper-shaped bookkeeping, then the full steady-state configuration
	// (delta ACKs + post-delivery compaction): crash-recovery must
	// restore either representation — compacted snapshots restore shared
	// interned sets — and reach the same quiescent endgame.
	t.Run("delta", func(t *testing.T) {
		testSimCrashRecoverQuiescent(t, urb.Config{DeltaAcks: true})
	})
	t.Run("delta+compact", func(t *testing.T) {
		testSimCrashRecoverQuiescent(t, urb.Config{DeltaAcks: true, CompactDelivered: true})
	})
}

func testSimCrashRecoverQuiescent(t *testing.T, cfg urb.Config) {
	const n = 4
	correct := make([]bool, n)
	for i := range correct {
		correct[i] = true // crash-recovery: proc 0 resumes, so it is correct
	}
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 2015}, correct)
	stores := make([]store.Store, n)
	stores[0] = store.NewMem()

	var eng *Engine
	eng = NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			// eng is nil while NewEngine builds the processes; the clock
			// closure is only invoked during Run, after the assignment.
			return urb.NewQuiescent(oracle.Handle(env.Index, func() int64 { return eng.Now() }), env.Tags, cfg)
		},
		Link:            channel.Bernoulli{P: 0.15, D: channel.UniformDelay{Min: 1, Max: 3}},
		Seed:            7,
		MaxTime:         200_000,
		CrashAt:         []Time{40, Never, Never, Never},
		RecoverAt:       []Time{600, Never, Never, Never},
		Stores:          stores,
		CheckpointEvery: 20,
		Broadcasts: []ScheduledBroadcast{
			// m-one completes before the crash; m-two is broadcast while
			// proc 0 is down, so with the oracle counting proc 0 as
			// correct (number = 4) nobody can even deliver it — the whole
			// cluster is blocked until the durable process returns and
			// acks. Recovery is load-bearing, not incidental.
			{At: 5, Proc: 1, Body: []byte("m-one")},
			{At: 45, Proc: 2, Body: []byte("m-two")},
		},
		StopWhenQuiet:    300,
		ExpectDeliveries: 2,
	})
	res := eng.Run()

	if !res.Recovered[0] {
		t.Fatal("proc 0 did not recover")
	}
	if !res.Quiescent {
		t.Fatalf("run did not quiesce (end=%d, lastSend=%d)", res.EndTime, res.LastSend)
	}
	if res.EndTime < 600 {
		t.Fatalf("run ended at %d, before the recovery it depends on", res.EndTime)
	}
	assertNoDuplicateDeliveries(t, res)
	for i := 0; i < n; i++ {
		if got := len(res.Deliveries[i]); got != 2 {
			t.Fatalf("proc %d delivered %d/2", i, got)
		}
		if res.ProcStats[i].MsgSet != 0 {
			t.Fatalf("proc %d still retransmitting %d messages after quiescence", i, res.ProcStats[i].MsgSet)
		}
	}
	// The recovered process retired everything it knew, like everyone
	// else — quiescence is cluster-wide, restarts included.
	if res.ProcStats[0].Retired == 0 {
		t.Fatal("recovered process retired nothing")
	}
}

// TestSimRecoverTraced: a recovery is traced once, at its scheduled
// time, as a CRASH with Need=1 after the crash it ends.
func TestSimRecoverTraced(t *testing.T) {
	const n = 3
	stores := make([]store.Store, n)
	stores[1] = store.NewMem()
	res := NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:      channel.Reliable{D: channel.FixedDelay(1)},
		Seed:      3,
		MaxTime:   300, // no delivery stop: the run must outlive the recovery
		CrashAt:   []Time{Never, 40, Never},
		RecoverAt: []Time{Never, 200, Never},
		Stores:    stores,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("x")},
		},
		TraceRing: obs.DefaultCapacity,
	}).Run()
	var crashes []obs.Event
	for _, e := range res.Trace.Events {
		if e.Kind == obs.EvCrash {
			crashes = append(crashes, e)
		}
	}
	if len(crashes) != 2 || crashes[0].Node != 1 || crashes[0].At != 40 || crashes[0].Need != 0 ||
		crashes[1].Node != 1 || crashes[1].At != 200 || crashes[1].Need != 1 {
		t.Fatalf("traced crashes %+v, want p1 down at 40 and back at 200", crashes)
	}
}

var errDiskDied = errors.New("disk died")

// dyingStore fails its k-th WAL append and every one after: a disk that
// died mid-run.
type dyingStore struct {
	*store.Mem
	k, appends int
}

func (s *dyingStore) AppendWAL(rec []byte) error {
	if s.appends++; s.appends >= s.k {
		return errDiskDied
	}
	return s.Mem.AppendWAL(rec)
}

// died reports whether the store has failed an append.
func (s *dyingStore) died() bool { return s.appends >= s.k }

// sendWatch is a test link model that counts the copies process proc
// offers once its store has died, in event order rather than by virtual
// time.
type sendWatch struct {
	channel.LinkModel
	proc  int
	st    *dyingStore
	after int
}

func (l *sendWatch) Judge(now int64, src, dst int, attempt uint64, rng *xrand.Source) channel.Verdict {
	if src == l.proc && l.st.died() {
		l.after++
	}
	return l.LinkModel.Judge(now, src, dst, attempt, rng)
}

// TestSimStoreErrorFailStops: a process whose store fails stops, as a
// node does — nothing of the Step that failed to persist is delivered or
// sent, everything it delivered is in its WAL, the run reports it
// crashed, and the run still satisfies URB.
func TestSimStoreErrorFailStops(t *testing.T) {
	const n = 5
	for _, k := range []int{1, 3, 8} {
		st := &dyingStore{Mem: store.NewMem(), k: k}
		stores := make([]store.Store, n)
		stores[0] = st
		watch := &sendWatch{LinkModel: channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 4}}, proc: 0, st: st}
		res := NewEngine(Config{
			N:       n,
			Factory: majorityFactory(n, urb.Config{}),
			Link:    watch,
			Seed:    2015,
			MaxTime: 100_000,
			Stores:  stores,
			Broadcasts: []ScheduledBroadcast{
				{At: 5, Proc: 0, Body: []byte("a")},
				{At: 9, Proc: 1, Body: []byte("b")},
				{At: 40, Proc: 0, Body: []byte("c")},
				{At: 60, Proc: 2, Body: []byte("d")},
			},
			ExpectDeliveries:  3,
			NoEarlyStopBefore: 200,
			TraceRing:         obs.DefaultCapacity,
		}).Run()
		if !res.Crashed[0] || !st.died() {
			t.Fatalf("k=%d: proc 0 kept running after its store failed", k)
		}
		if watch.after > 0 {
			t.Fatalf("k=%d: proc 0 sent %d copies after its store failed", k, watch.after)
		}
		// In proc 0's ring order: nothing delivered after the CRASH the
		// store error caused, and the trace delivers what the run does.
		down, traced := false, 0
		for _, e := range res.Trace.Events {
			switch {
			case e.Node != 0:
			case e.Kind == obs.EvCrash:
				down = true
			case e.Kind == obs.EvDeliver && down:
				t.Fatalf("k=%d: proc 0 delivered %v after its store failed", k, e.Msg)
			case e.Kind == obs.EvDeliver:
				traced++
			}
		}
		if !down || traced != len(res.Deliveries[0]) {
			t.Fatalf("k=%d: trace shows crash %v and %d deliveries; the run %d", k, down, traced, len(res.Deliveries[0]))
		}
		if rep := res.Check(); !rep.OK() {
			t.Fatalf("k=%d: %v", k, rep.Err())
		}
		if k == 8 && len(res.Deliveries[0]) == 0 {
			t.Fatal("k=8: run too tame, proc 0 failed before delivering anything")
		}
		// Exposed ⟹ durable.
		_, wal, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		durable := make(map[wire.MsgID]bool)
		for _, raw := range wal {
			ev, err := urb.DecodeWALRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind == urb.WALDeliver {
				durable[ev.ID] = true
			}
		}
		for _, d := range res.Deliveries[0] {
			if !durable[d.ID] {
				t.Fatalf("k=%d: proc 0 delivered %v without a WAL record", k, d.ID)
			}
		}
	}
}
