// Benchmarks for the evaluation suite: one benchmark per table (T1-T6)
// and per figure (F1-F8) of DESIGN.md §4 — each op regenerates the whole
// experiment at quick scale — plus micro-benchmarks for the hot paths
// (tag generation, codec, channel verdicts, state-machine steps, oracle
// views).
//
// Run with:
//
//	go test -bench=. -benchmem
package anonurb

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/harness"
	"anonurb/internal/host"
	"anonurb/internal/ident"
	"anonurb/internal/sim"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// benchExperiment runs one experiment generator per op.
func benchExperiment(b *testing.B, gen func(harness.Params) *harness.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := gen(harness.Params{Seed: 2015 + uint64(i), Quick: true})
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkT1MajorityCorrectness(b *testing.B) { benchExperiment(b, harness.T1Correctness) }
func BenchmarkT2Impossibility(b *testing.B)       { benchExperiment(b, harness.T2Impossibility) }
func BenchmarkT3CrashTolerance(b *testing.B)      { benchExperiment(b, harness.T3CrashTolerance) }
func BenchmarkT4FDAblation(b *testing.B)          { benchExperiment(b, harness.T4FDAblation) }
func BenchmarkT5Baselines(b *testing.B)           { benchExperiment(b, harness.T5BaselineGuarantees) }
func BenchmarkT6PriceOfUniformity(b *testing.B)   { benchExperiment(b, harness.T6PriceOfUniformity) }
func BenchmarkF1QuiescenceCurve(b *testing.B)     { benchExperiment(b, harness.F1QuiescenceCurve) }
func BenchmarkF2LatencyVsLoss(b *testing.B)       { benchExperiment(b, harness.F2LatencyVsLoss) }
func BenchmarkF3MessagesVsN(b *testing.B)         { benchExperiment(b, harness.F3MessagesVsN) }
func BenchmarkF4QuiescenceVsGST(b *testing.B)     { benchExperiment(b, harness.F4QuiescenceVsGST) }
func BenchmarkF5MemoryFootprint(b *testing.B)     { benchExperiment(b, harness.F5MemoryFootprint) }
func BenchmarkF6FastDelivery(b *testing.B)        { benchExperiment(b, harness.F6FastDelivery) }
func BenchmarkF7AnonymityCost(b *testing.B)       { benchExperiment(b, harness.F7AnonymityCost) }
func BenchmarkF8HeartbeatVsOracle(b *testing.B)   { benchExperiment(b, harness.F8HeartbeatVsOracle) }

// BenchmarkSimulatedRun measures raw simulator throughput: one full
// Algorithm 2 convergence run per op, n=5, 20% loss.
func BenchmarkSimulatedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		correct := []bool{true, true, true, true, true}
		oracle := fd.NewOracle(fd.OracleConfig{N: 5, Noise: fd.NoiseExact, Seed: uint64(i)}, correct)
		res := sim.NewEngine(sim.Config{
			N: 5,
			Factory: func(env sim.Env) urb.Process {
				return urb.NewQuiescent(oracle.Handle(env.Index, env.Now), env.Tags, urb.Config{})
			},
			Link:             channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 5}},
			Seed:             uint64(i),
			MaxTime:          100_000,
			Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("bench")}},
			StopWhenQuiet:    200,
			ExpectDeliveries: 1,
		}).Run()
		if !res.Quiescent {
			b.Fatal("bench run did not quiesce")
		}
	}
}

// BenchmarkTickPeriod is the ablation bench for the Task-1 period: the
// latency/overhead trade-off called out in DESIGN.md §5.
func BenchmarkTickPeriod(b *testing.B) {
	for _, period := range []sim.Time{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("period=%d", period), func(b *testing.B) {
			var lastLatency float64
			for i := 0; i < b.N; i++ {
				res := sim.NewEngine(sim.Config{
					N: 5,
					Factory: func(env sim.Env) urb.Process {
						return urb.NewMajority(5, env.Tags, urb.Config{})
					},
					Link:             channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 5}},
					Seed:             uint64(i),
					TickEvery:        period,
					MaxTime:          100_000,
					Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("tick")}},
					ExpectDeliveries: 1,
				}).Run()
				lastLatency = float64(res.EndTime)
			}
			b.ReportMetric(lastLatency, "vtime/convergence")
		})
	}
}

// --- micro-benchmarks -------------------------------------------------

func BenchmarkTagGeneration(b *testing.B) {
	src := ident.NewSource(xrand.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Next()
	}
}

func BenchmarkWireEncodeAck(b *testing.B) {
	labels := make([]ident.Tag, 8)
	rng := xrand.New(2)
	for i := range labels {
		labels[i] = ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}
	}
	m := wire.NewLabeledAck(wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 2}, Body: "payload"},
		ident.Tag{Hi: 3, Lo: 4}, labels)
	buf := make([]byte, 0, m.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkWireDecodeAck(b *testing.B) {
	labels := make([]ident.Tag, 8)
	rng := xrand.New(3)
	for i := range labels {
		labels[i] = ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}
	}
	enc := wire.NewLabeledAck(wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 2}, Body: "payload"},
		ident.Tag{Hi: 3, Lo: 4}, labels).Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelBernoulliVerdict(b *testing.B) {
	w := channel.NewNetwork(8, channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 5}},
		xrand.New(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(int64(i), i&7, (i+1)&7, 64)
	}
}

func BenchmarkMajorityReceiveMsg(b *testing.B) {
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	msgs := make([]wire.Message, 64)
	rng := xrand.New(6)
	for i := range msgs {
		msgs[i] = wire.NewMsg(wire.MsgID{
			Tag:  ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()},
			Body: "m",
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Receive(msgs[i&63])
	}
}

func BenchmarkQuiescentReceiveAck(b *testing.B) {
	view := fd.Normalize(fd.View{
		{Label: ident.Tag{Hi: 1, Lo: 1}, Number: 1 << 30}, // never deliver: pure bookkeeping cost
		{Label: ident.Tag{Hi: 2, Lo: 1}, Number: 1 << 30},
		{Label: ident.Tag{Hi: 3, Lo: 1}, Number: 1 << 30},
	})
	det := fd.Static{Theta: view, Star: view}
	p := urb.NewQuiescent(det, ident.NewSource(xrand.New(7)), urb.Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	labels := []ident.Tag{{Hi: 1, Lo: 1}, {Hi: 2, Lo: 1}, {Hi: 3, Lo: 1}}
	acks := make([]wire.Message, 64)
	rng := xrand.New(8)
	for i := range acks {
		acks[i] = wire.NewLabeledAck(id, ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}, labels)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Receive(acks[i&63])
	}
}

// recvSink keeps the benchmarked Receive's Step alive.
var recvSink urb.Step

// dupWorkingSet is how many messages the duplicate-reception benchmarks
// cycle through: the table and the payloads then exceed L1, as they do in
// a node that re-receives its whole working set every tick.
const dupWorkingSet = 200

// dupID is the k-th message of the duplicate-reception working set.
func dupID(k int) wire.MsgID {
	return wire.MsgID{Tag: ident.Tag{Hi: uint64(k) + 1, Lo: 9}, Body: fmt.Sprintf("payload-%04d-%048d", k, k)}
}

// BenchmarkMajorityReceiveDuplicate measures the steady state of
// Algorithm 1 on fair lossy channels: every message of a 200-message
// working set is already known, acknowledged and delivered, and Receive
// sees yet another copy — round-robin over the set. /msg re-ACKs (its one
// allocation is the reply's Step slice; the ACK shares the record's body
// bytes); /ack changes nothing and allocates nothing.
func BenchmarkMajorityReceiveDuplicate(b *testing.B) {
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	msgs := make([]wire.Message, dupWorkingSet)
	acks := make([]wire.Message, dupWorkingSet)
	for k := range msgs {
		id := dupID(k)
		msgs[k] = wire.NewMsg(id)
		acks[k] = wire.NewAck(id, ident.Tag{Hi: 100, Lo: 1})
		p.Receive(msgs[k])
		for a := uint64(100); a < 103; a++ {
			p.Receive(wire.NewAck(id, ident.Tag{Hi: a, Lo: 1}))
		}
	}
	if st := p.Stats(); st.Delivered != dupWorkingSet {
		b.Fatalf("setup: delivered %d/%d", st.Delivered, dupWorkingSet)
	}
	for _, c := range []struct {
		name string
		in   []wire.Message
	}{{"msg", msgs}, {"ack", acks}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recvSink = p.Receive(c.in[i%dupWorkingSet])
			}
		})
	}
}

// BenchmarkLoopFrameDuplicates measures the same steady state one layer
// up, where a live node meets it: host.Loop.OnFrame takes a peer's
// Task-1 batch frame of 100 MSG duplicates, decodes it, feeds every
// message to a Majority process holding a 200-message working set (all
// delivered) and packs the 100 ACK replies into one outgoing frame. One
// op is one frame; allocs/op covers decode, Receive and packing. The
// direct case is the loop's in-place path (urb.ReceiveFunc picks
// ReceiveTo); decorated hides ReceiveTo behind a wrapper, as a process
// decorator does, so every reception goes through Receive and Merge.
func BenchmarkLoopFrameDuplicates(b *testing.B) {
	const batch = 100
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	var frames [dupWorkingSet / batch][]byte
	for k := 0; k < dupWorkingSet; k++ {
		id := dupID(k)
		m := wire.NewMsg(id)
		p.Receive(m)
		for a := uint64(100); a < 103; a++ {
			p.Receive(wire.NewAck(id, ident.Tag{Hi: a, Lo: 1}))
		}
		frames[k/batch] = m.Encode(frames[k/batch])
	}
	if st := p.Stats(); st.Delivered != dupWorkingSet {
		b.Fatalf("setup: delivered %d/%d", st.Delivered, dupWorkingSet)
	}
	for _, c := range []struct {
		name string
		proc urb.Process
	}{{"direct", p}, {"decorated", decorated{p}}} {
		b.Run(c.name, func(b *testing.B) {
			l := host.NewLoop(host.Core{Proc: c.proc}, host.LoopConfig{Budget: transport.MaxUDPFrame, Batch: true}, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := l.OnFrame(frames[i%len(frames)])
				if err != nil || out.Received != batch || len(out.Frames) != 1 {
					b.Fatalf("frame %d: err %v, received %d, %d reply frames", i, err, out.Received, len(out.Frames))
				}
			}
		})
	}
}

// BenchmarkLoopFrameBurst measures what a node saves by taking a burst
// of queued frames in one host.Loop call: 16 one-message frames — the
// size of a delay line's wake of copies — each a MSG duplicate from a
// delivered 200-message Majority working set, fed as one OnFrames call
// (burst) against one OnFrame call per frame (frames). One op is the 16
// frames; the burst packs its 16 ACK replies into one frame, the frames
// case into 16.
func BenchmarkLoopFrameBurst(b *testing.B) {
	const k = 16
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	frames := make([][]byte, dupWorkingSet)
	for i := range frames {
		id := dupID(i)
		m := wire.NewMsg(id)
		p.Receive(m)
		for a := uint64(100); a < 103; a++ {
			p.Receive(wire.NewAck(id, ident.Tag{Hi: a, Lo: 1}))
		}
		frames[i] = m.Encode(nil)
	}
	if st := p.Stats(); st.Delivered != dupWorkingSet {
		b.Fatalf("setup: delivered %d/%d", st.Delivered, dupWorkingSet)
	}
	cfg := host.LoopConfig{Budget: transport.MaxUDPFrame, Batch: true}
	b.Run("burst", func(b *testing.B) {
		l := host.NewLoop(host.Core{Proc: p}, cfg, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := i % (dupWorkingSet / k) * k
			out, err := l.OnFrames(frames[at : at+k])
			if err != nil || out.Received != k || len(out.Frames) != 1 {
				b.Fatalf("burst %d: err %v, received %d, %d reply frames", i, err, out.Received, len(out.Frames))
			}
		}
	})
	b.Run("frames", func(b *testing.B) {
		l := host.NewLoop(host.Core{Proc: p}, cfg, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := i % (dupWorkingSet / k) * k
			for _, f := range frames[at : at+k] {
				out, err := l.OnFrame(f)
				if err != nil || out.Received != 1 || len(out.Frames) != 1 {
					b.Fatalf("frame %d: err %v, received %d, %d reply frames", i, err, out.Received, len(out.Frames))
				}
			}
		}
	})
}

// decorated wraps a process the way a decorator does, exposing only the
// urb.Process methods.
type decorated struct{ urb.Process }

// BenchmarkQuiescentReceiveDuplicateAck is the Algorithm 2 counterpart:
// the unchanged re-ACK (an empty ACKΔ at the acker's current epoch) for a
// delivered message, which the delivered-message fast path answers from
// the record alone.
func BenchmarkQuiescentReceiveDuplicateAck(b *testing.B) {
	label := ident.Tag{Hi: 1, Lo: 1}
	view := fd.Normalize(fd.View{{Label: label, Number: 2}})
	p := urb.NewQuiescent(fd.Static{Theta: view}, ident.NewSource(xrand.New(7)), urb.Config{DeltaAcks: true})
	acks := make([]wire.Message, dupWorkingSet)
	for k := range acks {
		id := dupID(k)
		for a := uint64(100); a < 102; a++ {
			p.Receive(wire.NewAckSnapshot(id, ident.Tag{Hi: a, Lo: 1}, 1, []ident.Tag{label}))
		}
		acks[k] = wire.NewAckDelta(id, ident.Tag{Hi: 100, Lo: 1}, 1, nil, nil)
	}
	if st := p.Stats(); st.Delivered != dupWorkingSet {
		b.Fatalf("setup: delivered %d/%d", st.Delivered, dupWorkingSet)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recvSink = p.Receive(acks[i%dupWorkingSet])
	}
}

// BenchmarkQuiescentReceiveMsgSteady is the acker side of Algorithm 2's
// steady state: yet another MSG copy of a known message, round-robin over
// the working set, under an AΘ view that does not change. Each copy is
// answered with the unchanged re-ACK — one allocation, the reply — and
// the view is compared with the ledger in place (DESIGN.md §10, "Label
// tables"); a Tick outside the timer after each round re-arms the
// per-tick re-ACK limit.
func BenchmarkQuiescentReceiveMsgSteady(b *testing.B) {
	view := make(fd.View, 5)
	for i := range view {
		view[i] = fd.Pair{Label: ident.Tag{Hi: uint64(i) + 1, Lo: 1}, Number: 4}
	}
	p := urb.NewQuiescent(fd.Static{Theta: fd.Normalize(view)}, ident.NewSource(xrand.New(7)), urb.Config{DeltaAcks: true})
	msgs := make([]wire.Message, dupWorkingSet)
	for k := range msgs {
		msgs[k] = wire.NewMsg(dupID(k))
		p.Receive(msgs[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%dupWorkingSet == 0 {
			b.StopTimer()
			tickSink = p.Tick()
			b.StartTimer()
		}
		recvSink = p.Receive(msgs[i%dupWorkingSet])
	}
	if len(recvSink.Broadcasts) != 1 {
		b.Fatalf("a duplicate MSG was answered with %d broadcasts, want the re-ACK", len(recvSink.Broadcasts))
	}
}

// hasSink keeps the benchmarked lookups alive.
var hasSink int

// BenchmarkSetHas measures label-set membership on both sides of the
// table's index threshold: n=5 scans its keys, n=100 goes through the
// hash index.
func BenchmarkSetHas(b *testing.B) {
	for _, n := range []int{5, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tags := make([]ident.Tag, 2*n) // members, then as many strangers
			src := ident.NewSource(xrand.New(11))
			for i := range tags {
				tags[i] = src.Next()
			}
			s := ident.NewSet(tags[:n]...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Has(tags[i%len(tags)]) {
					hasSink++
				}
			}
		})
	}
}

// BenchmarkMsgTableLookup measures one message-table lookup
// (HasDelivered) in a 4,096-record table, about what each stream_mesh
// node holds at the end of a run (DESIGN.md §10, "Keyed by tag"): hit
// finds a known message, miss probes a tag the table has never seen,
// and clash finds one of 64 second bodies filed under a taken tag (an
// index hit, a body mismatch, then the side map). No case allocates.
func BenchmarkMsgTableLookup(b *testing.B) {
	const records, clashes = 4096, 64
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	src := ident.NewSource(xrand.New(12))
	hit := make([]wire.MsgID, records)
	for k := range hit {
		hit[k] = wire.MsgID{Tag: src.Next(), Body: fmt.Sprintf("payload-%04d", k)}
		p.Receive(wire.NewMsg(hit[k]))
	}
	clash := make([]wire.MsgID, clashes)
	for k := range clash {
		clash[k] = wire.MsgID{Tag: hit[k*(records/clashes)].Tag, Body: fmt.Sprintf("second-%04d", k)}
		p.Receive(wire.NewMsg(clash[k]))
	}
	miss := make([]wire.MsgID, records)
	for k := range miss {
		miss[k] = wire.MsgID{Tag: src.Next(), Body: hit[k].Body}
	}
	for _, c := range []struct {
		name string
		ids  []wire.MsgID
		want bool
	}{{"hit", hit, true}, {"miss", miss, false}, {"clash", clash, true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.KnowsMsg(c.ids[i%len(c.ids)]) != c.want {
					b.Fatalf("lookup %d: KnowsMsg = %v, want %v", i, !c.want, c.want)
				}
			}
		})
	}
}

// BenchmarkEncodeCacheHit measures one cached MSG encoding appended
// into a reused buffer, round-robin over a 200-message working set. No
// host runs this path any more; BenchmarkMsgEncode is what replaced it.
func BenchmarkEncodeCacheHit(b *testing.B) {
	c := wire.NewEncodeCache(0)
	msgs := make([]wire.Message, dupWorkingSet)
	for k := range msgs {
		msgs[k] = wire.NewMsg(dupID(k))
		c.AppendEncoded(nil, msgs[k])
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendEncoded(buf[:0], msgs[i%dupWorkingSet])
	}
	if hits, misses := c.Stats(); misses != dupWorkingSet || hits == 0 {
		b.Fatalf("hits=%d misses=%d, want every timed append a hit", hits, misses)
	}
}

// BenchmarkMsgEncode measures what the node's send path does instead:
// one plain Message.Encode into a reused buffer, round-robin over the
// same 200-message working set.
func BenchmarkMsgEncode(b *testing.B) {
	msgs := make([]wire.Message, dupWorkingSet)
	for k := range msgs {
		msgs[k] = wire.NewMsg(dupID(k))
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = msgs[i%dupWorkingSet].Encode(buf[:0])
	}
}

// BenchmarkLoopTickSteady measures one warm Task-1 tick one layer up:
// host.Loop.OnTick on a Majority process whose MSG_i holds the
// 200-message working set, re-sent and packed into UDP-sized batch
// frames. allocs/op is Tick's Step slice plus one per frame.
func BenchmarkLoopTickSteady(b *testing.B) {
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	for k := 0; k < dupWorkingSet; k++ {
		p.Receive(wire.NewMsg(dupID(k)))
	}
	l := host.NewLoop(host.Core{Proc: p}, host.LoopConfig{Budget: transport.MaxUDPFrame, Batch: true}, 0)
	if _, err := l.OnTick(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := l.OnTick(0)
		if err != nil || len(out.Msgs) != dupWorkingSet {
			b.Fatalf("tick %d: err %v, %d messages sent", i, err, len(out.Msgs))
		}
	}
}

// BenchmarkMeshBroadcastDelayed measures one Send on a mesh whose every
// copy is delayed: n link verdicts and n entries on the mesh's delay
// line, drained by its one goroutine — no allocation per copy. (One
// time.AfterFunc per copy and a copy of the endpoint table per send
// allocated 16 times per Send at n=5 and 22 at n=7.)
func BenchmarkMeshBroadcastDelayed(b *testing.B) {
	for _, n := range []int{5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := transport.NewMesh(transport.MeshConfig{
				N: n, Link: channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 3}},
				Unit: 100 * time.Microsecond, Seed: 3,
			})
			defer m.Close()
			var received atomic.Int64
			for i := 0; i < n; i++ {
				go func(in <-chan []byte) {
					for range in {
						received.Add(1)
					}
				}(m.Endpoint(i).Receive())
			}
			sender := m.Endpoint(0)
			frame := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sender.Send(frame)
			}
			b.StopTimer()
			// Receivers that cannot keep up with a sender in a tight loop
			// shed copies at their inboxes, which is theirs to do; the
			// count only keeps the deliveries from being elided.
			hasSink += int(received.Load())
		})
	}
}

// BenchmarkUDPSend measures one Send on a 5-socket loopback UDPGroup
// whose receivers drain their inboxes: a datagram to each of the four
// remote peers and the sender's own copy offered to its inbox in-process.
func BenchmarkUDPSend(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			group, err := transport.UDPGroup(5, 0)
			if err != nil {
				b.Fatal(err)
			}
			var received atomic.Int64
			for _, u := range group {
				go func(in <-chan []byte) {
					for range in {
						received.Add(1)
					}
				}(u.Receive())
			}
			frame := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				group[0].Send(frame)
			}
			b.StopTimer()
			for _, u := range group {
				u.Close()
			}
			hasSink += int(received.Load())
		})
	}
}

// tickSink keeps the benchmarked Tick's Step alive.
var tickSink urb.Step

// BenchmarkQuiescentTickIdle measures one Task-1 pass of an Algorithm 2
// process that has nothing to decide: history messages were broadcast,
// delivered and retired before the timer starts, the detector views never
// change, and inflight undelivered messages (if any) are retransmitted
// every tick. The retirement index (DESIGN.md §10) makes the cost
// O(|MSG_i|): the history=100 and history=10000 lines must read the same.
func BenchmarkQuiescentTickIdle(b *testing.B) {
	for _, c := range []struct{ history, inflight int }{{100, 0}, {10000, 0}, {10000, 8}} {
		name := fmt.Sprintf("history=%d", c.history)
		if c.inflight > 0 {
			name += fmt.Sprintf("/inflight=%d", c.inflight)
		}
		b.Run(name, func(b *testing.B) {
			label := ident.Tag{Hi: 1, Lo: 1}
			view := fd.Normalize(fd.View{{Label: label, Number: 1}})
			p := urb.NewQuiescent(fd.Static{Theta: view, Star: view},
				ident.NewSource(xrand.New(11)), urb.Config{})
			for k := 0; k < c.history; k++ {
				id, _ := p.Broadcast([]byte(fmt.Sprintf("h%d", k)))
				p.Receive(wire.NewLabeledAck(id, ident.Tag{Hi: 2, Lo: 1}, []ident.Tag{label}))
				p.Tick()
			}
			for k := 0; k < c.inflight; k++ {
				p.Broadcast([]byte(fmt.Sprintf("f%d", k)))
			}
			if st := p.Stats(); st.Retired != c.history || st.MsgSet != c.inflight {
				b.Fatalf("setup: retired %d/%d, |MSG_i| = %d/%d", st.Retired, c.history, st.MsgSet, c.inflight)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tickSink = p.Tick()
			}
		})
	}
}

// BenchmarkQuiescentTickViewShift measures one Task-1 pass under a
// changed detector view, which the retirement index cannot skip: the
// full pass purges and re-evaluates every message holding claim state
// (DESIGN.md §10). history messages were broadcast, delivered and
// retired before the timer starts; each op flips AΘ between two views
// that agree on every claimed label, so the purge changes nothing and
// only its reach is measured. Retirement frees the claim state (D3), so
// the history=100 and history=10000 lines must read the same.
func BenchmarkQuiescentTickViewShift(b *testing.B) {
	for _, history := range []int{100, 10000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			label := ident.Tag{Hi: 1, Lo: 1}
			star := fd.Normalize(fd.View{{Label: label, Number: 1}})
			views := []fd.View{star, fd.Normalize(fd.View{{Label: label, Number: 1}, {Label: ident.Tag{Hi: 9, Lo: 1}, Number: 5}})}
			shift := 0
			det := fd.Func{
				ThetaFn: func() fd.View { return views[shift%2] },
				StarFn:  func() fd.View { return star },
			}
			p := urb.NewQuiescent(det, ident.NewSource(xrand.New(12)), urb.Config{})
			for k := 0; k < history; k++ {
				id, _ := p.Broadcast([]byte(fmt.Sprintf("h%d", k)))
				p.Receive(wire.NewLabeledAck(id, ident.Tag{Hi: 2, Lo: 1}, []ident.Tag{label}))
				p.Tick()
			}
			if st := p.Stats(); st.Retired != history || st.MsgSet != 0 {
				b.Fatalf("setup: retired %d/%d, |MSG_i| = %d", st.Retired, history, st.MsgSet)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shift++
				tickSink = p.Tick()
			}
		})
	}
}

func BenchmarkOracleViewExact(b *testing.B) {
	correct := make([]bool, 16)
	for i := range correct {
		correct[i] = i%3 != 0
	}
	o := fd.NewOracle(fd.OracleConfig{N: 16, Noise: fd.NoiseExact, Seed: 9}, correct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.ATheta(1, int64(i))
	}
}

func BenchmarkOracleViewAdversarial(b *testing.B) {
	correct := make([]bool, 16)
	for i := range correct {
		correct[i] = i%3 != 0
	}
	o := fd.NewOracle(fd.OracleConfig{
		N: 16, Noise: fd.NoiseAdversarial, GST: 1 << 40, NoisePeriod: 10, Seed: 10,
	}, correct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.ATheta(1, int64(i))
	}
}

// viewSink keeps the benchmarked detector views alive.
var viewSink fd.View

// BenchmarkHeartbeatView times what Algorithm 2 pays per detector read
// on the heartbeat stack at n=7: one beat heard and one AΘ read per op,
// the clock one unit further each op, beating labels round-robin. In
// steady every label stays trusted, so the read returns the shared view;
// in expiring the timeout lets exactly one label lapse and another
// return on every op, so every read rebuilds.
func BenchmarkHeartbeatView(b *testing.B) {
	for _, bc := range []struct {
		name    string
		timeout int64
	}{{"steady", 1000}, {"expiring", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			const n = 7
			now := int64(0)
			h := fd.NewHeartbeat(ident.Tag{Hi: 1, Lo: 1}, bc.timeout, func() int64 { return now })
			peers := make([]ident.Tag, n-1)
			for i := range peers {
				peers[i] = ident.Tag{Hi: uint64(i) + 2, Lo: 1}
				h.Hear(peers[i])
				now++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Hear(peers[i%len(peers)])
				viewSink = h.ATheta()
				now++
			}
		})
	}
}

// snapshotState builds the Algorithm 2 state a durable_restart node
// checkpoints: n=5, the tuned configuration, and history messages with
// 256 B bodies, each received, acknowledged by all five ackers under one
// AΘ view, delivered and retired.
func snapshotState(tb testing.TB, history int) *urb.Quiescent {
	tb.Helper()
	const n = 5
	view := make(fd.View, n)
	labels := make([]ident.Tag, n)
	for i := range view {
		labels[i] = ident.Tag{Hi: uint64(i) + 1, Lo: 1}
		view[i] = fd.Pair{Label: labels[i], Number: n}
	}
	det := fd.Static{Theta: fd.Normalize(view), Star: fd.Normalize(view.Clone())}
	p := urb.NewQuiescent(det, ident.NewSource(xrand.New(21)), urb.Config{
		EagerFirstSend: true, CheckOnTick: true, RetireBeforeSend: true,
		DeltaAcks: true, CompactDelivered: true, PaceResyncs: true,
	})
	rng := xrand.New(22)
	body := make([]byte, 256)
	for k := 0; k < history; k++ {
		for i := range body {
			body[i] = byte('a' + rng.Intn(26))
		}
		id := wire.MsgID{Tag: ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}, Body: string(body)}
		p.Receive(wire.NewMsg(id))
		for a := 0; a < n; a++ {
			p.Receive(wire.NewAckSnapshot(id, ident.Tag{Hi: uint64(k*n+a) + 1000, Lo: 7}, 1, labels))
		}
		p.Tick()
	}
	if st := p.Stats(); st.Retired != history || st.Delivered != history {
		tb.Fatalf("setup: retired %d, delivered %d, want %d", st.Retired, st.Delivered, history)
	}
	return p
}

// snapSink keeps the benchmarked Snapshot alive.
var snapSink []byte

// BenchmarkQuiescentSnapshot measures one checkpoint of a durable_restart
// node's state: the encoding plus the digest over the canonical state
// fingerprint (DESIGN.md §9).
func BenchmarkQuiescentSnapshot(b *testing.B) {
	p := snapshotState(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = p.Snapshot()
	}
}

// TestQuiescentSnapshotAllocs guards the checkpoint's allocation count:
// the snapshot buffer and the sort scratch grow with history, but their
// number must not, so doubling the retired history adds at most a small
// constant of allocations per Snapshot.
func TestQuiescentSnapshotAllocs(t *testing.T) {
	allocs := func(history int) float64 {
		p := snapshotState(t, history)
		return testing.AllocsPerRun(3, func() { snapSink = p.Snapshot() })
	}
	a400, a800 := allocs(400), allocs(800)
	t.Logf("allocations per Snapshot: %.0f at 400 messages, %.0f at 800", a400, a800)
	if a800 > a400+8 {
		t.Fatalf("Snapshot allocations grow with history: %.0f at 400 messages, %.0f at 800", a400, a800)
	}
}
