package sim

import (
	"reflect"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/obs"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
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
				var lifecycle *TraceObserver
				if traced {
					lifecycle = NewTraceObserver(5, 0)
					cfg.Observers = []Observer{lifecycle}
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
				if lifecycle != nil {
					events = uint64(len(lifecycle.Events()))
				}
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

// wireAuditor is a test-only Observer holding the two wire-level
// properties of the model: channels neither create nor duplicate copies
// (receives never exceed surviving sends per destination and encoded
// message), and a crashed process sends nothing.
type wireAuditor struct {
	offered, received map[wireKey]int
	crashedAt         map[int]Time
	lateSends         int
}

type wireKey struct {
	dst int
	enc string
}

func (a *wireAuditor) OnBroadcast(Time, int, wire.MsgID) {}
func (a *wireAuditor) OnDeliver(Time, int, urb.Delivery) {}
func (a *wireAuditor) OnCrash(t Time, proc int)          { a.crashedAt[proc] = t }
func (a *wireAuditor) OnReceive(_ Time, dst int, m wire.Message) {
	a.received[wireKey{dst, string(m.Encode(nil))}]++
}
func (a *wireAuditor) OnSend(t Time, src, dst int, m wire.Message, dropped bool, _ Time) {
	if at, down := a.crashedAt[src]; down && t > at {
		a.lateSends++
	}
	if !dropped {
		a.offered[wireKey{dst, string(m.Encode(nil))}]++
	}
}

// TestWireIntegrityAndCrashSilence audits a lossy run in which two of
// five processes crash mid-dissemination, and checks that the lifecycle
// trace of the same run keeps the per-message volume rule and passes
// the URB checker.
func TestWireIntegrityAndCrashSilence(t *testing.T) {
	audit := &wireAuditor{offered: map[wireKey]int{}, received: map[wireKey]int{}, crashedAt: map[int]Time{}}
	lifecycle := NewTraceObserver(5, 0)
	res := NewEngine(Config{
		N:       5,
		Factory: majorityFactory(5, urb.Config{}),
		Link:    channel.Bernoulli{P: 0.25, D: channel.UniformDelay{Min: 1, Max: 5}},
		Seed:    2015,
		MaxTime: 100_000,
		CrashAt: []Time{Never, Never, Never, 60, 80},
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("selftest-a")},
			{At: 9, Proc: 1, Body: []byte("selftest-b")},
		},
		Observers:         []Observer{audit, lifecycle},
		ExpectDeliveries:  2,
		NoEarlyStopBefore: 100,
	}).Run()
	if len(audit.crashedAt) != 2 || res.Net.Dropped == 0 || len(audit.received) == 0 {
		t.Fatalf("run too tame to audit: crashes %v, net %+v", audit.crashedAt, res.Net)
	}
	for k, got := range audit.received {
		if sent := audit.offered[k]; got > sent {
			t.Errorf("p%d received %d copies of a message but only %d survived the link", k.dst, got, sent)
		}
	}
	if audit.lateSends > 0 {
		t.Errorf("crashed processes sent %d copies", audit.lateSends)
	}
	run := lifecycle.Run()
	rep, err := run.Check(false)
	if err != nil || !rep.OK() || rep.Broadcast != 2 || rep.TotalDeliveries < 6 {
		t.Fatalf("lifecycle trace check: %v %+v", err, rep)
	}
	// Per message, never per copy: at most one RECV per process and
	// message, however many retransmissions arrived.
	recvs := 0
	for _, e := range run.Events {
		if e.Kind == obs.EvRecv {
			recvs++
		}
	}
	if recvs > 5*2 {
		t.Fatalf("%d RECV events for 2 messages at 5 processes", recvs)
	}
}
