//go:build linux

package main

import (
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/urb"
)

// stack selects the algorithm stack a workload runs.
type stack int

const (
	// stackQuiescent is Algorithm 2 over the exact fd.Oracle.
	stackQuiescent stack = iota
	// stackMajority is Algorithm 1.
	stackMajority
	// stackHeartbeat is Algorithm 2 over the message-based heartbeat
	// detector (urb.NewHeartbeatHost): no oracle.
	stackHeartbeat
)

// tuned turns every urb.Config deviation on; the zero urb.Config is the
// paper's listing.
var tuned = urb.Config{
	EagerFirstSend:   true,
	CheckOnTick:      true,
	RetireBeforeSend: true,
	DeltaAcks:        true,
	CompactDelivered: true,
	PaceResyncs:      true,
	DeltaBeats:       true,
}

// heartbeatTimeoutTicks is the heartbeat detector's trust timeout.
const heartbeatTimeoutTicks = 50

// workload is one fixed set of inputs. Names are fixed: later issues cite
// them. Every time below is a share of the schedule, so that one
// -seconds value scales a whole workload.
type workload struct {
	name string
	// why is the one-line reason in BENCHMARK.json and the README.
	why   string
	stack stack
	cfg   urb.Config
	n     int
	// udp runs on transport.UDPGroup over loopback instead of the mesh.
	udp bool
	// link is the link model, delays in milliseconds: per copy on the
	// mesh, per frame (transport.Chaos) over UDP.
	link    channel.LinkModel
	payload int
	tick    time.Duration
	// rate is the open-loop broadcast rate per second, cluster-wide.
	rate float64
	// span is the share of -seconds the schedule lasts.
	span float64
	// durable gives every node a store.OpenFile store.
	durable bool
	// checkpoint is the nodes' checkpoint cadence.
	checkpoint float64
	// restarts are the moments the last node is stopped and at once
	// recovered from its store.
	restarts []float64
	// crashAt, when > 0, is the moment the last node crashes for good.
	crashAt float64
	// quiesce is how long after the drain the cluster may take to go
	// quiet; 0 for Algorithm 1, which never does.
	quiesce time.Duration
	// spansPerBroadcast pre-sizes each node's span buffer.
	spansPerBroadcast int
}

// lossFree reports whether the workload's links never drop a frame, so
// that an inbox overflow is the only loss and invalidates the run.
func (w *workload) lossFree() bool {
	_, lossy := w.link.(channel.Bernoulli)
	return !lossy
}

// victim is the node the workload's faults hit.
func (w *workload) victim() int { return w.n - 1 }

// schedule is how long the generator runs in a run of the given duration.
func (w *workload) schedule(seconds float64) time.Duration {
	return time.Duration(w.span * seconds * float64(time.Second))
}

// broadcasts is the schedule's length in broadcasts.
func (w *workload) broadcasts(seconds float64) int {
	return int(w.rate*w.schedule(seconds).Seconds() + 0.5)
}

var workloads = []*workload{
	{
		name: "stream_mesh",
		why: "Fast path of Algorithm 2 on the in-process mesh with 1-3 ms links: node loop, wire codec, ACK " +
			"bookkeeping; long enough that work proportional to history shows. Store and UDP idle.",
		stack: stackQuiescent, cfg: tuned, n: 5,
		link:    channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 3}},
		payload: 64, tick: 10 * time.Millisecond, rate: 250, span: 1,
		quiesce: 2 * time.Second, spansPerBroadcast: 40,
	},
	{
		name: "stream_udp",
		why: "Same algorithm work and 1-3 ms delay as stream_mesh, over loopback UDP sockets: a transport " +
			"gain shows here and leaves stream_mesh unmoved, an algorithm gain shows in both.",
		stack: stackQuiescent, cfg: tuned, n: 5, udp: true,
		link:    channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 3}},
		payload: 64, tick: 10 * time.Millisecond, rate: 250, span: 1,
		quiesce: 2 * time.Second, spansPerBroadcast: 30,
	},
	{
		name: "majority_steady",
		why: "Algorithm 1 in the paper's configuration never retires: every tick re-sends the whole working " +
			"set, so Tick, the encode cache, batch decode and duplicate Receive dominate. 40 ms tick.",
		stack: stackMajority, cfg: urb.Config{}, n: 5,
		link:    channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 3}},
		payload: 64, tick: 40 * time.Millisecond, rate: 16, span: 25.0 / 32,
		spansPerBroadcast: 12000,
	},
	{
		name: "durable_restart",
		why: "stream_mesh with a file store (fsync per append) on every node, 256 B payloads, checkpoints every " +
			"2 s, node 4 stopped and recovered three times: WAL append, checkpoint and recovery paths of the store.",
		stack: stackQuiescent, cfg: tuned, n: 5,
		link:    channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 3}},
		payload: 256, tick: 10 * time.Millisecond, rate: 25, span: 1,
		durable: true, checkpoint: 0.125, restarts: []float64{0.3, 0.55, 0.8},
		quiesce: 2 * time.Second, spansPerBroadcast: 60,
	},
	{
		name: "lossy_crash",
		why: "Heartbeat stack (no oracle), n=7, 10% loss and 1-5 ms links, node 6 crashes for good: latency " +
			"is protocol rounds, not CPU, so a CPU gain predicts no change here. Second cluster size.",
		stack: stackHeartbeat, cfg: tuned, n: 7,
		link:    channel.Bernoulli{P: 0.1, D: channel.UniformDelay{Min: 1, Max: 5}},
		payload: 64, tick: 10 * time.Millisecond, rate: 150, span: 1,
		crashAt: 0.375,
		quiesce: 5 * time.Second, spansPerBroadcast: 150,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
