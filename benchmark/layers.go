//go:build linux

package main

import (
	"runtime"
	"sort"
	"time"

	"anonurb/internal/wire"
)

// agg sums the spans of one (layer, op) pair.
type agg struct {
	calls, dur, self, n int64
}

func (a agg) perCall(total int64) float64 { return ratio(float64(total), float64(a.calls)) }

// spanSums aggregates every recorder's spans by layer and op.
func spanSums(recs []*recorder) (sums [numLayers][numOps]agg, spans int64) {
	for _, r := range recs {
		spans += int64(len(r.spans))
		for _, s := range r.spans {
			a := &sums[s.layer][s.op]
			a.calls += int64(s.calls)
			a.dur += s.dur
			a.self += s.self()
			a.n += int64(s.n)
		}
	}
	return sums, spans
}

// durations collects the durations of the spans pick accepts.
func durations(recs []*recorder, pick func(span) bool) []int64 {
	var out []int64
	for _, r := range recs {
		for _, s := range r.spans {
			if pick(s) {
				out = append(out, s.dur)
			}
		}
	}
	return out
}

// wireReplay is what replaying the captured frames through the codec
// measured.
type wireReplay struct {
	frames, msgs, bytes int64
	decode, encode      time.Duration
	decodeAllocs        uint64
}

// wireSink keeps the replay's results live so the compiler cannot drop
// the calls being timed.
var wireSink struct {
	m wire.Message
	b []byte
}

// replayWire measures the wire codec, which the node calls directly and
// no decorator can wrap: every frame the transport decorators captured
// is decoded again with wire.DecodePrefix, exactly as the node's receive
// loop does, and every message re-encoded through a per-node
// wire.EncodeCache, as the node's send path does.
func replayWire(recs []*recorder) wireReplay {
	var w wireReplay
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for _, r := range recs {
		for _, frame := range r.frames {
			w.frames++
			w.bytes += int64(len(frame))
			for rest := frame; len(rest) > 0; {
				m, next, err := wire.DecodePrefix(rest)
				if err != nil {
					break
				}
				wireSink.m, rest = m, next
				w.msgs++
			}
		}
	}
	w.decode = time.Since(begin)
	runtime.ReadMemStats(&after)
	w.decodeAllocs = after.Mallocs - before.Mallocs

	var msgs []wire.Message
	buf := make([]byte, 0, 1<<16)
	for _, r := range recs {
		cache := wire.NewEncodeCache(0)
		for _, frame := range r.frames {
			msgs = msgs[:0]
			for rest := frame; len(rest) > 0; {
				m, next, err := wire.DecodePrefix(rest)
				if err != nil {
					break
				}
				msgs, rest = append(msgs, m), next
			}
			begin := time.Now()
			buf = buf[:0]
			for _, m := range msgs {
				buf = cache.AppendEncoded(buf, m)
			}
			w.encode += time.Since(begin)
			wireSink.b = buf
		}
	}
	return w
}

// perLayer turns a traced measurement into the per-layer metrics. Every
// metric is emitted on every workload; one whose layer the workload does
// not use reads 0.
func (m *measurement) perLayer() map[string]float64 {
	c, w := m.c, m.w
	sums, spans := spanSums(c.recs)
	d := float64(m.deliveries)
	wall := float64(m.quiet - m.start)
	// loopTime is the node-loop time the cluster had: a layer's busy
	// share is the part of it spent inside that layer.
	loopTime := wall * float64(w.n)
	urbAll := sums[layerURB]
	var urbSelf, urbDur int64
	for _, a := range urbAll {
		urbSelf += a.self
		urbDur += a.dur
	}
	send := sums[layerTransport][opSend]
	for _, r := range c.recs {
		late := r.lateSendNs.Load()
		send.dur += late
		send.self += late
	}
	judge := sums[layerChannel][opJudge]
	appendWAL, save, load := sums[layerStore][opAppend], sums[layerStore][opSave], sums[layerStore][opLoad]
	storeDur := appendWAL.dur + save.dur + load.dur

	sched := int64(w.schedule(m.opt.seconds))
	ticksIn := func(from, to int64) []int64 {
		return durations(c.recs, func(s span) bool {
			return s.layer == layerURB && s.op == opTick && s.start >= m.start+from && s.start < m.start+to
		})
	}

	var retire []int64
	for seq, b := range m.led.broadcasts {
		var last int64
		for _, r := range c.recs {
			if t := r.lastSent[seq]; t > last {
				last = t
			}
		}
		if last > 0 {
			retire = append(retire, last-b.due)
		}
	}

	var msgSet, ackEntries, ackStorage float64
	for _, st := range m.stats {
		msgSet += float64(st.MsgSet)
		ackEntries += float64(st.AckEntries)
		ackStorage += float64(st.AckLabelStorage)
	}
	liveEnd := float64(len(m.stats))

	var fast int
	var deliveredAt []int64
	for _, log := range m.led.delivered {
		for _, dl := range log {
			if dl.fast {
				fast++
			}
			if m.crashedAt > 0 && dl.at >= m.crashedAt {
				deliveredAt = append(deliveredAt, dl.at)
			}
		}
	}
	// The stall a crash causes is the longest silence in deliveries that
	// begins within the detector's trust timeout of it: deliveries whose
	// evidence was already complete still trickle in right after.
	var crashStall int64
	if m.crashedAt > 0 {
		sort.Slice(deliveredAt, func(i, j int) bool { return deliveredAt[i] < deliveredAt[j] })
		prev := m.crashedAt
		for _, t := range deliveredAt {
			if prev-m.crashedAt > int64(heartbeatTimeoutTicks*w.tick) {
				break
			}
			if t-prev > crashStall {
				crashStall = t - prev
			}
			prev = t
		}
	}

	var lastSnapshot span
	for _, r := range c.recs {
		for _, s := range r.spans {
			if s.layer == layerURB && s.op == opSnapshot && s.start >= lastSnapshot.start {
				lastSnapshot = s
			}
		}
	}

	replay := replayWire(c.recs)
	decodeNs := ratio(float64(replay.decode), float64(replay.msgs))
	encodeNs := ratio(float64(replay.encode), float64(replay.msgs))
	wireCPU := decodeNs*float64(m.nodes.recvMsgs) + encodeNs*float64(m.nodes.sentMsgs)
	residual := float64(m.cpu) - float64(urbDur) - float64(send.dur) - float64(storeDur) - wireCPU

	calls := make([]int64, len(m.led.broadcasts))
	lag := make([]int64, len(m.led.broadcasts))
	var firsts []int64
	for i, b := range m.led.broadcasts {
		calls[i], lag[i] = b.call, b.lag
		if first := m.ver.first[i]; first >= 0 {
			firsts = append(firsts, first-b.due)
		}
	}
	lat := m.latencies()
	var recoverNs int64
	for _, r := range m.restarts {
		recoverNs += int64(r.recoverTook)
	}
	var dropShare float64
	if c.mesh != nil {
		sends, drops := c.mesh.Stats()
		dropShare = ratio(float64(drops), float64(sends))
	}
	tracing := float64(spans) * float64(spanCost())
	appends := durations(c.recs, isStoreOp(opAppend))

	return map[string]float64{
		"urb.receive_ns_per_msg":            urbAll[opReceive].perCall(urbAll[opReceive].self),
		"urb.receive_calls_per_delivery":    float64(urbAll[opReceive].calls) / d,
		"urb.broadcast_ns_per_call":         urbAll[opBroadcast].perCall(urbAll[opBroadcast].self),
		"urb.busy_share":                    float64(urbSelf) / loopTime,
		"urb.tick_us_early":                 us(percentile(ticksIn(0, sched/10), 50)),
		"urb.tick_us_late":                  us(percentile(ticksIn(sched-sched/10, sched), 50)),
		"urb.retire_ms_p50":                 ms(percentile(retire, 50)),
		"urb.quiescence_ms":                 ms(m.quiet - m.lastDue),
		"urb.msgset_end":                    ratio(msgSet, liveEnd),
		"urb.ack_entries_end":               ratio(ackEntries, liveEnd),
		"urb.ack_label_storage_end":         ratio(ackStorage, liveEnd),
		"urb.fast_delivery_share":           float64(fast) / d,
		"urb.snapshot_ms_per_call":          urbAll[opSnapshot].perCall(urbAll[opSnapshot].dur) / 1e6,
		"urb.snapshot_bytes_end":            float64(lastSnapshot.n),
		"fd.view_ns_per_call":               sums[layerFD][opView].perCall(sums[layerFD][opView].dur),
		"fd.beat_bytes_per_s":               float64(m.nodes.beatBytes) / (wall / 1e9),
		"fd.crash_stall_ms":                 ms(crashStall),
		"wire.decode_ns_per_msg":            decodeNs,
		"wire.decode_allocs_per_msg":        ratio(float64(replay.decodeAllocs), float64(replay.msgs)),
		"wire.encode_ns_per_msg":            encodeNs,
		"wire.bytes_per_msg":                ratio(float64(m.nodes.bytes), float64(m.nodes.sentMsgs)),
		"wire.msgs_per_frame":               ratio(float64(m.nodes.sentMsgs), float64(m.nodes.sentFrames)),
		"wire.encode_cache_hit_share":       ratio(float64(m.nodes.cacheHits), float64(m.nodes.cacheHits+m.nodes.cacheMisses)),
		"node.broadcast_call_us_p50":        us(percentile(calls, 50)),
		"node.broadcast_call_us_p95":        us(percentile(calls, 95)),
		"node.recv_msgs_per_delivery":       float64(m.nodes.recvMsgs) / d,
		"node.frames_per_delivery":          float64(m.nodes.recvFrames) / d,
		"node.bad_frames":                   float64(m.nodes.badFrames),
		"node.recover_ms":                   ratio(ms(recoverNs), float64(len(m.restarts))),
		"node.restart_ms":                   m.restartMS(),
		"node.residual_cpu_us_per_delivery": residual / 1e3 / d,
		"transport.send_ns_per_frame":       send.perCall(send.self),
		"transport.inbox_depth_p95":         float64(percentile(m.inboxDepths, 95)),
		"transport.inbox_overflows":         float64(m.overflows),
		"transport.busy_share":              float64(send.self) / loopTime,
		"channel.judge_ns_per_copy":         judge.perCall(judge.dur),
		"channel.drop_share":                dropShare,
		"store.append_us_p50":               us(percentile(appends, 50)),
		"store.append_us_p95":               us(percentile(appends, 95)),
		"store.appends_per_delivery":        float64(appendWAL.calls) / d,
		"store.append_bytes_per_delivery":   float64(appendWAL.n) / d,
		"store.snapshot_ms_p50":             ms(percentile(durations(c.recs, isStoreOp(opSave)), 50)),
		"store.snapshots":                   float64(save.calls),
		"store.load_ms":                     load.perCall(load.dur) / 1e6,
		"store.busy_share":                  float64(storeDur) / loopTime,
		"runtime.allocs_per_delivery":       float64(m.mem1.Mallocs-m.mem0.Mallocs) / d,
		"runtime.alloc_bytes_per_delivery":  float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / d,
		"runtime.gc_cpu_share":              ratio(float64(m.gcCPU), float64(m.cpu)),
		"runtime.gc_cycles":                 float64(m.mem1.NumGC - m.mem0.NumGC),
		"driver.lag_p99_ms":                 ms(percentile(lag, 99)),
		"driver.latency_p99_ms":             ms(percentile(lat, 99)),
		"driver.latency_max_ms":             ms(percentile(lat, 100)),
		"driver.first_delivery_p50_ms":      ms(percentile(firsts, 50)),
		"driver.undelivered_share":          ratio(float64(m.ver.failed), float64(m.ver.attempted)),
		"driver.traced_cpu_us_per_delivery": us(int64(m.cpu)) / d,
		"driver.trace_overhead_share":       ratio(tracing, float64(m.cpu)-tracing),
	}
}

func isStoreOp(o op) func(span) bool {
	return func(s span) bool { return s.layer == layerStore && s.op == o }
}
