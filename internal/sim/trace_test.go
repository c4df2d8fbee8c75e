package sim

import (
	"reflect"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/obs"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// TestTracingInvisibleOnWire runs each configuration twice: untraced,
// then with every process emitting into its own obs.Tracer
// (Config.TraceRing). Tracers observe steps and never feed back, so both
// runs must deliver the same messages at the same virtual times in the
// same order, and the channel must count the same copies sent, dropped
// and mutated.
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
			run := func(ring int) Result {
				return NewEngine(Config{
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
					TraceRing:        ring,
				}).Run()
			}
			plain, traced := run(0), run(obs.DefaultCapacity)
			for p, ds := range plain.Deliveries {
				if tc.crashAt != nil && tc.crashAt[p] != Never && !plain.Crashed[p] {
					t.Fatalf("p%d never crashed (end=%d)", p, plain.EndTime)
				}
				if !plain.Crashed[p] && len(ds) != 3 {
					t.Fatalf("p%d delivered %d of 3 (end=%d)", p, len(ds), plain.EndTime)
				}
			}
			if len(plain.Trace.Events) != 0 || len(traced.Trace.Events) == 0 {
				t.Fatalf("untraced run recorded %d events, traced run %d",
					len(plain.Trace.Events), len(traced.Trace.Events))
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

// TestTraceMatchesResult: the merged trace of a run holds the run's
// ground truth. It has one BROADCAST per broadcast and one DELIVER per
// exposed delivery, at the same times, and one CRASH per crash.
func TestTraceMatchesResult(t *testing.T) {
	const n = 3
	res := NewEngine(Config{
		N:                 n,
		Factory:           majorityFactory(n, urb.Config{}),
		Link:              lossy(0.2),
		Seed:              8,
		MaxTime:           5000,
		CrashAt:           []Time{Never, Never, 100},
		Broadcasts:        []ScheduledBroadcast{{At: 2, Proc: 0, Body: []byte("watch")}},
		ExpectDeliveries:  1,
		NoEarlyStopBefore: 150,
		TraceRing:         obs.DefaultCapacity,
	}).Run()
	var broadcasts []BroadcastAt
	delivers := make([][]DeliveryAt, n)
	var crashes []obs.Event
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case obs.EvBroadcast:
			broadcasts = append(broadcasts, BroadcastAt{ID: e.Msg, Proc: int(e.Node), At: e.At})
		case obs.EvDeliver:
			delivers[e.Node] = append(delivers[e.Node],
				DeliveryAt{Delivery: urb.Delivery{ID: e.Msg, Fast: e.Have == 1}, At: e.At})
		case obs.EvCrash:
			crashes = append(crashes, e)
		}
	}
	if !reflect.DeepEqual(broadcasts, res.Broadcasts) {
		t.Fatalf("traced broadcasts %v, run %v", broadcasts, res.Broadcasts)
	}
	if !reflect.DeepEqual(delivers, res.Deliveries) {
		t.Fatalf("traced deliveries %v, run %v", delivers, res.Deliveries)
	}
	if len(crashes) != 1 || crashes[0].Node != 2 || crashes[0].At != 100 || crashes[0].Need != 0 {
		t.Fatalf("traced crashes %+v, want p2 at 100", crashes)
	}
	if rep, err := res.Trace.Check(false); err != nil || !reflect.DeepEqual(rep, res.Check()) {
		t.Fatalf("trace check %+v (%v), result check %+v", rep, err, res.Check())
	}
}

// TestTraceKeepsTimeZero: events at virtual time 0 are traced at 0, not
// at their sequence numbers, so the merged trace stays in time order.
func TestTraceKeepsTimeZero(t *testing.T) {
	res := NewEngine(Config{
		N:       3,
		Factory: majorityFactory(3, urb.Config{}),
		Link:    channel.Reliable{D: channel.FixedDelay(1)},
		Seed:    3,
		MaxTime: 1000,
		Broadcasts: []ScheduledBroadcast{
			{At: 0, Proc: 0, Body: []byte("a")},
			{At: 0, Proc: 1, Body: []byte("b")},
			{At: 0, Proc: 2, Body: []byte("c")},
		},
		ExpectDeliveries: 3,
		TraceRing:        obs.DefaultCapacity,
	}).Run()
	broadcasts := 0
	for _, e := range res.Trace.Events {
		if e.Kind == obs.EvBroadcast {
			broadcasts++
			if e.At != 0 {
				t.Fatalf("p%d's broadcast at 0 traced at %d", e.Node, e.At)
			}
		}
	}
	if broadcasts != 3 {
		t.Fatalf("%d BROADCAST events, want 3", broadcasts)
	}
}

// wireKey names one encoded message arriving at one destination.
type wireKey struct {
	dst int
	enc string
}

// recordingLink is a test link model that counts, per destination and
// encoded message, the copies its inner model lets through, and counts
// the copies processes offer after their crash time.
type recordingLink struct {
	channel.LinkModel
	crashAt   []Time
	offered   map[wireKey]int
	lateSends int
}

func (l *recordingLink) JudgeFrame(now int64, src, dst int, attempt uint64, frame []byte, rng *xrand.Source) []channel.Copy {
	if at := l.crashAt[src]; at != Never && now > at {
		l.lateSends++
	}
	copies := channel.JudgeCopies(l.LinkModel, now, src, dst, attempt, frame, rng)
	for _, c := range copies {
		if c.SameFrame(frame) {
			l.offered[wireKey{dst, string(frame)}]++
		}
	}
	return copies
}

// recordingProc is a test process wrapper that counts, per encoded
// message, the copies its process receives.
type recordingProc struct {
	*urb.Majority
	dst      int
	received map[wireKey]int
}

func (p *recordingProc) Receive(m wire.Message) urb.Step {
	p.received[wireKey{p.dst, string(m.Encode(nil))}]++
	return p.Majority.Receive(m)
}

// TestWireIntegrityAndCrashSilence audits a lossy run in which two of
// five processes crash mid-dissemination for the two wire-level
// properties of the model: channels neither create nor duplicate copies
// (receives never exceed surviving sends per destination and encoded
// message), and a crashed process sends nothing. It also checks that the
// lifecycle trace of the same run keeps the per-message volume rule and
// passes the URB checker.
func TestWireIntegrityAndCrashSilence(t *testing.T) {
	const n = 5
	crashAt := []Time{Never, Never, Never, 60, 80}
	link := &recordingLink{LinkModel: channel.Bernoulli{P: 0.25, D: channel.UniformDelay{Min: 1, Max: 5}},
		crashAt: crashAt, offered: map[wireKey]int{}}
	received := map[wireKey]int{}
	res := NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			return &recordingProc{Majority: urb.NewMajority(n, env.Tags, urb.Config{}), dst: env.Index, received: received}
		},
		Link:    link,
		Seed:    2015,
		MaxTime: 100_000,
		CrashAt: crashAt,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("selftest-a")},
			{At: 9, Proc: 1, Body: []byte("selftest-b")},
		},
		ExpectDeliveries:  2,
		NoEarlyStopBefore: 100,
		TraceRing:         obs.DefaultCapacity,
	}).Run()
	if !res.Crashed[3] || !res.Crashed[4] || res.Net.Dropped == 0 || len(received) == 0 {
		t.Fatalf("run too tame to audit: crashed %v, net %+v", res.Crashed, res.Net)
	}
	for k, got := range received {
		if sent := link.offered[k]; got > sent {
			t.Errorf("p%d received %d copies of a message but only %d survived the link", k.dst, got, sent)
		}
	}
	if link.lateSends > 0 {
		t.Errorf("crashed processes sent %d copies", link.lateSends)
	}
	rep, err := res.Trace.Check(false)
	if err != nil || !rep.OK() || rep.Broadcast != 2 || rep.TotalDeliveries < 6 {
		t.Fatalf("lifecycle trace check: %v %+v", err, rep)
	}
	// Per message, never per copy: at most one RECV per process and
	// message, however many retransmissions arrived.
	recvs := 0
	for _, e := range res.Trace.Events {
		if e.Kind == obs.EvRecv {
			recvs++
		}
	}
	if recvs > n*2 {
		t.Fatalf("%d RECV events for 2 messages at %d processes", recvs, n)
	}
}
