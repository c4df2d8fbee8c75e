package sim

import (
	"reflect"
	"testing"

	"anonurb/internal/obs"
	"anonurb/internal/urb"
)

// TestTracingInvisibleOnWire runs each configuration twice: untraced,
// then with every process emitting into its own obs.Tracer and the
// run-wide TraceObserver attached. Tracers observe steps and never feed
// back, so both runs must deliver the same messages at the same virtual
// times in the same order, and the channel must count the same copies
// sent, dropped and mutated.
func TestTracingInvisibleOnWire(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory Factory
		crashAt []Time
	}{
		{"majority", majorityFactory(5, urb.Config{}), nil},
		{"heartbeat/crash", func(env Env) urb.Process {
			return urb.NewHeartbeatHost(env.Tags, 200, 1, env.Now,
				urb.Config{DeltaAcks: true, CompactDelivered: true, DeltaBeats: true})
		}, []Time{Never, Never, Never, 25, Never}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(traced bool) (Result, uint64) {
				cfg := Config{
					N:       5,
					Factory: tc.factory,
					Link:    lossy(0.2),
					Seed:    9,
					MaxTime: 5000,
					CrashAt: tc.crashAt,
					Broadcasts: []ScheduledBroadcast{
						{At: 5, Proc: 0, Body: []byte("a")},
						{At: 20, Proc: 1, Body: []byte("b")},
						{At: 40, Proc: 0, Body: []byte("c")},
					},
					ExpectDeliveries: 3,
				}
				var tracers []*obs.Tracer
				if traced {
					lifecycle := NewTraceObserver(0)
					cfg.Observers = []Observer{lifecycle}
					tracers = append(tracers, lifecycle.Tracer())
					cfg.Factory = func(env Env) urb.Process {
						p := tc.factory(env)
						tr := obs.New(env.Index, 0, env.Now)
						p.(obs.Traceable).SetTracer(tr)
						tracers = append(tracers, tr)
						return p
					}
				}
				res := NewEngine(cfg).Run()
				var events uint64
				for _, tr := range tracers {
					events += tr.Total()
				}
				return res, events
			}
			plain, _ := run(false)
			traced, events := run(true)
			for p, ds := range plain.Deliveries {
				if tc.crashAt != nil && tc.crashAt[p] != Never && !plain.Crashed[p] {
					t.Fatalf("p%d never crashed (end=%d)", p, plain.EndTime)
				}
				if !plain.Crashed[p] && len(ds) != 3 {
					t.Fatalf("p%d delivered %d of 3 (end=%d)", p, len(ds), plain.EndTime)
				}
			}
			if events == 0 {
				t.Fatal("the traced run recorded no lifecycle events")
			}
			if !reflect.DeepEqual(plain.Deliveries, traced.Deliveries) {
				t.Fatalf("tracing changed the deliveries:\n plain  %v\n traced %v", plain.Deliveries, traced.Deliveries)
			}
			if plain.Net != traced.Net {
				t.Fatalf("tracing changed the wire traffic: %+v vs %+v", plain.Net, traced.Net)
			}
		})
	}
}
