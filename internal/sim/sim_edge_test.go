package sim

import (
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/obs"
	"anonurb/internal/urb"
)

func TestEngineBroadcastFromCrashedProcSkipped(t *testing.T) {
	// A broadcast scheduled after its process's crash never happens; the
	// run must still terminate via the obligation rule (nothing obliges
	// anyone).
	res := NewEngine(Config{
		N:                3,
		Factory:          majorityFactory(3, urb.Config{}),
		Link:             channel.Reliable{D: channel.FixedDelay(1)},
		Seed:             21,
		MaxTime:          5_000,
		CrashAt:          []Time{5, Never, Never},
		Broadcasts:       []ScheduledBroadcast{{At: 10, Proc: 0, Body: []byte("never-sent")}},
		ExpectDeliveries: 1,
	}).Run()
	if len(res.Broadcasts) != 0 {
		t.Fatal("crashed process issued a broadcast")
	}
	if res.EndTime >= 5_000 {
		t.Fatalf("obligation rule should have ended the run early, end=%d", res.EndTime)
	}
	for i, ds := range res.Deliveries {
		if len(ds) != 0 {
			t.Fatalf("p%d delivered a never-issued message", i)
		}
	}
}

func TestEngineVanishedFaultySenderMessage(t *testing.T) {
	// The sender crashes and every pre-crash copy is dropped (blackhole):
	// its message obliges nobody, the run converges early, and the
	// checker has nothing to complain about.
	res := NewEngine(Config{
		N:                4,
		Factory:          majorityFactory(4, urb.Config{}),
		Link:             channel.Blackhole{},
		Seed:             22,
		MaxTime:          5_000,
		CrashAt:          []Time{30, Never, Never, Never},
		Broadcasts:       []ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("vanishes")}},
		ExpectDeliveries: 1,
	}).Run()
	if len(res.Broadcasts) != 1 {
		t.Fatal("broadcast should have been issued")
	}
	if res.EndTime >= 5_000 {
		t.Fatalf("vanished-message run should stop early, end=%d", res.EndTime)
	}
}

func TestEngineObligationSurvivesSenderCrashWhenReceived(t *testing.T) {
	// The sender dies right after its message reaches others: the
	// obligation persists and the run ends only when the survivors all
	// delivered.
	res := NewEngine(Config{
		N:                4,
		Factory:          majorityFactory(4, urb.Config{}),
		Link:             channel.Reliable{D: channel.FixedDelay(2)},
		Seed:             23,
		MaxTime:          50_000,
		CrashAt:          []Time{25, Never, Never, Never},
		Broadcasts:       []ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("outlives-sender")}},
		ExpectDeliveries: 1,
	}).Run()
	for i := 1; i < 4; i++ {
		if len(res.Deliveries[i]) != 1 {
			t.Fatalf("survivor p%d delivered %d", i, len(res.Deliveries[i]))
		}
	}
}

func TestEngineTickPhasesDiffer(t *testing.T) {
	// Processes must not tick in lockstep: with n=8 the initial tick
	// phases (≡ first sends, given an immediate broadcast each) should
	// spread over several distinct times.
	bcasts := make([]ScheduledBroadcast, 8)
	for i := range bcasts {
		bcasts[i] = ScheduledBroadcast{At: 0, Proc: i, Body: []byte(string(rune('a' + i)))}
	}
	res := NewEngine(Config{
		N:          8,
		Factory:    majorityFactory(8, urb.Config{}),
		Link:       channel.Reliable{D: channel.FixedDelay(1)},
		Seed:       24,
		MaxTime:    100,
		Broadcasts: bcasts,
		TraceRing:  obs.DefaultCapacity,
	}).Run()
	// Each process's first FIRST_SEND is its first tick: Task 1 sends
	// MSG, and the merged trace is in time order.
	firstSend := map[int32]Time{}
	for _, e := range res.Trace.Events {
		if _, seen := firstSend[e.Node]; e.Kind == obs.EvFirstSend && !seen {
			firstSend[e.Node] = e.At
		}
	}
	distinct := map[Time]bool{}
	for _, at := range firstSend {
		distinct[at] = true
	}
	if len(firstSend) != 8 || len(distinct) < 3 {
		t.Fatalf("tick phases look lockstep: %v", firstSend)
	}
}

func TestEngineNoBroadcastsNoWork(t *testing.T) {
	// An idle system stays idle: ticks fire but no traffic ever flows.
	res := NewEngine(Config{
		N:       3,
		Factory: majorityFactory(3, urb.Config{}),
		Link:    channel.Reliable{D: channel.FixedDelay(1)},
		Seed:    25,
		MaxTime: 500,
	}).Run()
	if res.Net.Sent != 0 {
		t.Fatalf("idle system sent %d copies", res.Net.Sent)
	}
	if res.EndTime < 500 {
		t.Fatalf("idle run ended early at %d", res.EndTime)
	}
}

func TestEngineCrashAtTimeZero(t *testing.T) {
	// Crashing at t=0 must precede the first tick (phases start at 1).
	res := NewEngine(Config{
		N:          2,
		Factory:    majorityFactory(2, urb.Config{}),
		Link:       channel.Reliable{D: channel.FixedDelay(1)},
		Seed:       26,
		MaxTime:    200,
		CrashAt:    []Time{0, Never},
		Broadcasts: []ScheduledBroadcast{{At: 1, Proc: 1, Body: []byte("x")}},
	}).Run()
	if !res.Crashed[0] {
		t.Fatal("crash at 0 not applied")
	}
	if len(res.Deliveries[0]) != 0 {
		t.Fatal("process crashed at 0 delivered")
	}
}
