//go:build linux

package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"anonurb/internal/node"
	"anonurb/internal/urb"
	"anonurb/internal/xrand"
)

const (
	// setupRounds is how many times an untraced run sets the cluster up;
	// setup_s is the median round and the last cluster is the one the
	// workload runs on.
	setupRounds = 5
	// warmupTicks is the pause that ends a set-up, which lets sockets
	// settle and lets the heartbeat hosts learn each other's labels before
	// any delivery guard reads a detector view.
	warmupTicks = 10
	// drainDeadline bounds the wait for every expected delivery after
	// the last broadcast.
	drainDeadline = 10 * time.Second
	// quietTicks is how long every node must have sent nothing for the
	// cluster to count as quiescent.
	quietTicks = 5
	// maxLagP99 is how late the generator may run at the 99th percentile
	// before the run says nothing about the program. The generator shares
	// the one processor with the nodes, and a runnable goroutine waits out
	// a 10 ms preemption quantum for each node that is encoding a snapshot
	// ahead of it; two quanta and a half is still the program's doing,
	// anything beyond it is the machine's.
	maxLagP99 = 25 * time.Millisecond
)

// violNotQuiescent reports a cluster that kept sending after the drain.
const violNotQuiescent = "not_quiescent"

// runOptions are a run's inputs besides the workload.
type runOptions struct {
	seed    uint64
	seconds float64
	traced  bool
	// outDir is where stores (and nothing else) are written.
	outDir string
	// spanFile, on a traced run, is where the spans go; "" writes none.
	spanFile string
	// patience multiplies the drain and quiescence deadlines; 0 means 1.
	// The smoke test, which shares its machine with other tests, sets it.
	patience int
}

// within scales a deadline by the run's patience.
func (o runOptions) within(d time.Duration) time.Duration {
	return d * time.Duration(max(o.patience, 1))
}

// counters are a node's cumulative traffic and durability counts; a
// cluster sums them over every incarnation of every slot.
type counters struct {
	sentFrames, recvFrames, badFrames uint64
	sentMsgs, recvMsgs                uint64
	bytes, beatBytes                  uint64
	cacheHits, cacheMisses            uint64
	walAppends, walBytes              uint64
	checkpoints                       uint64
}

func (c *counters) add(nd *node.Node) {
	sf, rf, bf := nd.FrameStats()
	sm, rm := nd.MessageStats()
	msg, ack, beat, snap, other := nd.ByteStats()
	hits, misses := nd.EncodeCacheStats()
	st := nd.StoreStats()
	c.sentFrames += sf
	c.recvFrames += rf
	c.badFrames += bf
	c.sentMsgs += sm
	c.recvMsgs += rm
	c.bytes += msg + ack + beat + snap + other
	c.beatBytes += beat
	c.cacheHits += hits
	c.cacheMisses += misses
	c.walAppends += st.WALAppends
	c.walBytes += st.WALBytes
	c.checkpoints += st.Checkpoints
}

// restartRec is one stop-and-recover of the victim node.
type restartRec struct {
	stopped     int64 // ns since the run epoch
	recoverTook time.Duration
}

// measurement is what one run observed, before it is turned into
// metrics.
type measurement struct {
	w   *workload
	opt runOptions
	c   *cluster

	// setups are the set-up rounds in ns, builds the part of each spent
	// building and starting, before the settling pause.
	setups, builds []int64
	led            ledger
	ver            verdict
	deliveries     int

	// start and lastDue bracket the schedule; drained is when the last
	// expected delivery had arrived and quiet when the cluster had gone
	// silent (equal to drained for Algorithm 1). All ns since the epoch.
	start, lastDue, drained, quiet int64
	// cpu is process user+system time from start to quiet, and gcCPU the
	// collector's share of it.
	cpu, gcCPU time.Duration
	mem0, mem1 runtime.MemStats
	heapAlloc  uint64

	nodes     counters
	stats     []urb.Stats // of the processes live at the end
	restarts  []restartRec
	crashedAt int64
	overflows uint64
	// inboxDepths are the traced run's 10 ms samples of every inbox.
	inboxDepths []int64
}

// run executes one workload once and returns what it measured. The
// cluster is stopped and its files are removed when run returns.
func run(w *workload, opt runOptions) (*measurement, error) {
	m := &measurement{w: w, opt: opt}
	total := w.broadcasts(opt.seconds)
	if total < 1 {
		return nil, fmt.Errorf("%s: -seconds %g schedules no broadcast", w.name, opt.seconds)
	}
	if err := m.setUp(); err != nil {
		return nil, err
	}
	c := m.c
	defer c.close()
	runtime.GC()

	var polling sync.WaitGroup
	stopPolling := make(chan struct{})
	if opt.traced {
		polling.Add(1)
		go func() {
			defer polling.Done()
			m.pollInboxes(stopPolling)
		}()
	}

	runtime.ReadMemStats(&m.mem0)
	gc0 := gcCPUSeconds()
	cpu0 := processCPU()
	begin := time.Now()
	m.start = int64(begin.Sub(c.epoch))
	span := w.schedule(opt.seconds)

	faultErr := make(chan error, 1)
	go func() { faultErr <- m.injectFaults(begin, span) }()
	m.generate(begin, total)
	if err := <-faultErr; err != nil {
		close(stopPolling)
		polling.Wait()
		return nil, err
	}
	quiescent := m.drain()

	m.cpu = processCPU() - cpu0
	m.gcCPU = time.Duration((gcCPUSeconds() - gc0) * float64(time.Second))
	runtime.ReadMemStats(&m.mem1)
	close(stopPolling)
	polling.Wait()

	m.overflows = c.overflows()
	for _, s := range c.live() {
		st, err := s.node.Stats()
		if err != nil {
			return nil, fmt.Errorf("%s: node stats: %w", w.name, err)
		}
		m.stats = append(m.stats, st)
	}
	c.close()
	// The nodes have stopped, the transports are closed and their inboxes
	// emptied, so nothing is in flight (Algorithm 1 never stops sending:
	// what its inboxes and link timers hold depends on the instant it is
	// stopped); the nodes, and through them the algorithm's state, the
	// encode caches and the delivery logs, are still referenced.
	c.discardInFlight()
	m.heapAlloc = liveHeap()
	runtime.KeepAlive(c)
	for _, s := range c.slots {
		m.nodes.add(s.node)
		if err := s.node.StoreStats().Err; err != nil {
			return nil, fmt.Errorf("%s: store: %w", w.name, err)
		}
	}

	m.led.live = make([]bool, w.n)
	m.led.delivered = make([][]delivery, w.n)
	for i, s := range c.slots {
		m.led.live[i] = !s.down
		m.led.delivered[i] = s.log
		m.deliveries += len(s.log)
	}
	m.ver = m.led.check()
	if !quiescent {
		m.ver.violations = append(m.ver.violations, violation{violNotQuiescent, -1, -1})
	}
	if m.deliveries == 0 {
		return nil, fmt.Errorf("%s: no delivery at all", w.name)
	}
	return m, nil
}

// setUp makes the cluster ready for the first broadcast — build it, start
// every node, let it settle — several times over on an untraced run, and
// leaves the last one in m.c.
func (m *measurement) setUp() error {
	rounds := setupRounds
	if m.opt.traced {
		rounds = 1 // setup_s is never read from a traced run
	}
	for r := 0; r < rounds; r++ {
		if m.c != nil {
			m.c.close()
		}
		begin := time.Now()
		c, err := buildCluster(m.w, m.opt, filepath.Join(m.opt.outDir, "stores"))
		if err != nil {
			return err
		}
		m.c = c
		if err := c.start(); err != nil {
			c.close()
			return err
		}
		m.builds = append(m.builds, int64(time.Since(begin)))
		time.Sleep(warmupTicks * m.w.tick)
		m.setups = append(m.setups, int64(time.Since(begin)))
	}
	return nil
}

// generate is the open-loop load generator: it issues the schedule's
// broadcasts round-robin over the live nodes, each at its due time or as
// soon after as the previous call returned, and never waits for a
// delivery.
func (m *measurement) generate(begin time.Time, total int) {
	c, w := m.c, m.w
	m.led.broadcasts = make([]broadcastRec, total)
	body := make([]byte, w.payload)
	rng := xrand.SplitLabeled(m.opt.seed, "payload")
	next := 0
	var free int64 // when the previous Broadcast call returned
	for seq := range m.led.broadcasts {
		due := begin.Add(time.Duration(float64(seq) / w.rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		binary.BigEndian.PutUint64(body, uint64(seq))
		for i := 8; i+8 <= len(body); i += 8 {
			binary.BigEndian.PutUint64(body[i:], rng.Uint64())
		}
		b := &m.led.broadcasts[seq]
		b.due = int64(due.Sub(c.epoch))
		b.refused = true
		for tries := 0; tries < w.n && b.refused; tries++ {
			b.origin = next % w.n
			next++
			s := c.slots[b.origin]
			s.mu.Lock()
			if !s.down {
				sent := time.Now()
				id, err := s.node.Broadcast(body)
				b.sent, b.call = int64(sent.Sub(c.epoch)), int64(time.Since(sent))
				b.id, b.refused = id, err != nil
				b.lag = b.sent - max(b.due, free)
				free = b.sent + b.call
			}
			s.mu.Unlock()
		}
	}
	m.lastDue = m.led.broadcasts[total-1].due
}

// injectFaults performs the workload's restarts and its crash at their
// moments of the schedule.
func (m *measurement) injectFaults(begin time.Time, span time.Duration) error {
	c, w := m.c, m.w
	for _, at := range w.restarts {
		time.Sleep(time.Until(begin.Add(time.Duration(at * float64(span)))))
		old := c.slots[w.victim()].node
		stopped, took, err := c.restart(w.victim())
		m.nodes.add(old)
		if err != nil {
			return err
		}
		m.restarts = append(m.restarts, restartRec{int64(stopped.Sub(c.epoch)), took})
	}
	if w.crashAt > 0 {
		time.Sleep(time.Until(begin.Add(time.Duration(w.crashAt * float64(span)))))
		c.crash(w.victim())
		m.crashedAt = int64(time.Since(c.epoch))
	}
	return nil
}

// drain waits for every expected delivery and then for quiescence where
// the algorithm promises it, and reports whether quiescence came in
// time. A delivery missing at the deadline is left for the output check
// to name.
func (m *measurement) drain() (quiescent bool) {
	c, w := m.c, m.w
	live := c.live()
	// Every live process owes one delivery per accepted broadcast of an
	// origin that is itself still live; what a crashed origin had in
	// flight settles during the quiescence wait.
	var owed int64
	for _, b := range m.led.broadcasts {
		if !b.refused && !c.slots[b.origin].down {
			owed++
		}
	}
	deadline := time.Now().Add(m.opt.within(drainDeadline))
	settled := func(ok func(*slot) bool) bool {
		for _, s := range live {
			if !ok(s) {
				return false
			}
		}
		return true
	}
	for !settled(func(s *slot) bool { return s.count.Load() >= owed }) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.drained = int64(time.Since(c.epoch))
	m.quiet = m.drained
	if w.quiesce == 0 {
		return true
	}
	quietFor := quietTicks * w.tick
	isQuiet := func(s *slot) bool { return s.node.QuietFor(quietFor) }
	poll := time.Millisecond
	if w.stack == stackHeartbeat {
		// Beats never stop; the algorithm's own traffic has once every
		// survivor's MSG set is empty. Stats runs on the node loop and
		// walks the ACK history, so poll it sparingly.
		quietFor = 0
		isQuiet = func(s *slot) bool {
			st, err := s.node.Stats()
			return err == nil && st.MsgSet == 0
		}
		poll = 50 * time.Millisecond
	}
	deadline = time.Now().Add(m.opt.within(w.quiesce) + quietFor)
	for !settled(isQuiet) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(poll)
	}
	m.quiet = int64(time.Since(c.epoch) - quietFor)
	return true
}

// pollInboxes samples the length of every node's inbound frame queue
// every 10 ms until stop is closed.
func (m *measurement) pollInboxes(stop <-chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, s := range m.c.slots {
				s.mu.Lock()
				raw := s.raw
				s.mu.Unlock()
				m.inboxDepths = append(m.inboxDepths, int64(len(raw.Receive())))
			}
		}
	}
}

// latencies returns, for every broadcast delivered everywhere expected,
// the time from its due moment to its delivery at the last expected
// process, in ns.
func (m *measurement) latencies() []int64 {
	out := make([]int64, 0, len(m.led.broadcasts))
	for seq, b := range m.led.broadcasts {
		if done := m.ver.done[seq]; done >= 0 {
			out = append(out, done-b.due)
		}
	}
	return out
}

// restartMS is the mean time without service over the run's restarts, in
// ms: from the moment the victim had stopped to the delivery, at every
// process, of the first broadcast due after that moment. 0 without a
// restart.
func (m *measurement) restartMS() float64 {
	var stalls, total int64
	for _, r := range m.restarts {
		seq := sort.Search(len(m.led.broadcasts), func(i int) bool { return m.led.broadcasts[i].due >= r.stopped })
		if seq < len(m.led.broadcasts) && m.ver.done[seq] >= 0 {
			stalls++
			total += m.ver.done[seq] - r.stopped
		}
	}
	return ratio(ms(total), float64(stalls))
}

// invalid lists the reasons the run measured the sandbox rather than the
// program; a run with any is reported but must not be used.
func (m *measurement) invalid() []string {
	var why []string
	lag := make([]int64, len(m.led.broadcasts))
	for i, b := range m.led.broadcasts {
		lag[i] = b.lag
	}
	if p99 := percentile(lag, 99); p99 > int64(maxLagP99) {
		why = append(why, fmt.Sprintf("generator ran %.1f ms late at p99 (limit %v)", ms(p99), maxLagP99))
	}
	if m.w.lossFree() && m.overflows > 0 {
		why = append(why, fmt.Sprintf("%d inbox overflows on a loss-free workload", m.overflows))
	}
	return why
}

// endToEnd turns the measurement into the end-to-end metrics.
func (m *measurement) endToEnd() map[string]float64 {
	lat := m.latencies()
	d := float64(m.deliveries)
	return map[string]float64{
		"setup_s":                 float64(percentile(m.setups, 50)) / 1e9,
		"latency_p50_ms":          ms(percentile(lat, 50)),
		"latency_p95_ms":          ms(percentile(lat, 95)),
		"cpu_us_per_delivery":     us(int64(m.cpu)) / d,
		"wire_bytes_per_delivery": float64(m.nodes.bytes) / d,
		"heap_mb":                 float64(m.heapAlloc) / 1e6,
	}
}

// liveHeap is the heap in use after a forced collection: the second of
// two, so that what the first one's finalizers and sweep released is gone
// as well.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// processCPU is the process's user plus system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the runtime's estimate of CPU spent collecting so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
