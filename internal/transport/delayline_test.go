package transport

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/xrand"
)

// recordSink records the frames a delay line hands it, in order, and
// when the first one came.
type recordSink struct {
	mu     sync.Mutex
	frames [][]byte
	first  time.Time
}

func (r *recordSink) deliver(frame []byte) {
	r.mu.Lock()
	if len(r.frames) == 0 {
		r.first = time.Now()
	}
	r.frames = append(r.frames, frame)
	r.mu.Unlock()
}

func (r *recordSink) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDelayLineOrder: frames come out ordered by due time whatever order
// they went in, and frames due at the same instant in arrival order.
func TestDelayLineOrder(t *testing.T) {
	var line delayLine
	var sink recordSink
	base := time.Now().Add(30 * time.Millisecond)
	rng := xrand.New(4)
	type want struct {
		slot, arrival int
	}
	var wants []want
	for i := 0; i < 200; i++ {
		slot := rng.Intn(8) // few distinct due times: many ties
		wants = append(wants, want{slot, i})
		line.add(base.Add(time.Duration(slot)*time.Millisecond), &sink, []byte{byte(slot), byte(i)})
	}
	slices.SortStableFunc(wants, func(a, b want) int { return a.slot - b.slot })
	waitFor(t, "the line to drain", func() bool { return sink.count() == len(wants) })
	if early := base.Sub(sink.first); early > 0 {
		t.Fatalf("the first frame was handed over %v before any was due", early)
	}
	for i, w := range wants {
		if got := sink.frames[i]; int(got[0]) != w.slot || int(got[1]) != w.arrival {
			t.Fatalf("position %d: frame (due slot %d, arrival %d), want (%d, %d)", i, got[0], got[1], w.slot, w.arrival)
		}
	}
}

// TestDelayLineEarlierArrivalWakesSleeper: a frame due before the one the
// drain goroutine went to sleep on is not held back by it.
func TestDelayLineEarlierArrivalWakesSleeper(t *testing.T) {
	var line delayLine
	var sink recordSink
	start := time.Now()
	line.add(start.Add(5*time.Second), &sink, []byte("late"))
	time.Sleep(5 * time.Millisecond) // the sleeper is now waiting for "late"
	line.add(time.Now().Add(time.Millisecond), &sink, []byte("early"))
	waitFor(t, "the early frame", func() bool { return sink.count() == 1 })
	if string(sink.frames[0]) != "early" || time.Since(start) > 2*time.Second {
		t.Fatalf("got %q after %v", sink.frames[0], time.Since(start))
	}
	line.close()
}

// TestDelayLineGoroutineLifetime: the line holds a goroutine only while
// frames are pending — without anyone closing it — and a later frame
// starts a new one.
func TestDelayLineGoroutineLifetime(t *testing.T) {
	before := runtime.NumGoroutine()
	var line delayLine
	var sink recordSink
	for round := 1; round <= 3; round++ {
		for i := 0; i < 10; i++ {
			line.add(time.Now().Add(time.Duration(i)*time.Millisecond), &sink, []byte{byte(i)})
		}
		waitFor(t, "the line to drain", func() bool { return sink.count() == 10*round })
		waitFor(t, "the drain goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
	}
}

// lineState reads how many drain goroutines the line has started and
// whether one runs now.
func lineState(l *delayLine) (starts uint64, running bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.starts, l.running
}

// TestDelayLineDrainerSurvivesShortGaps: frames spaced well inside
// lineLinger are served by one drain goroutine, not one per frame; once
// they stop, the goroutine exits after the linger without a close, and a
// close ends it at once.
func TestDelayLineDrainerSurvivesShortGaps(t *testing.T) {
	var line delayLine
	var sink recordSink
	const frames = 10
	for i := 0; i < frames; i++ {
		line.add(time.Now().Add(time.Millisecond), &sink, []byte{byte(i)})
		time.Sleep(lineLinger / 10)
	}
	waitFor(t, "the line to drain", func() bool { return sink.count() == frames })
	idle := time.Now()
	if starts, _ := lineState(&line); starts != 1 {
		t.Fatalf("%d drain goroutines started for frames %v apart, want 1", starts, lineLinger/10)
	}
	waitFor(t, "the idle drain goroutine to exit", func() bool { _, running := lineState(&line); return !running })
	if took := time.Since(idle); took > 2*lineLinger {
		t.Fatalf("idle drain goroutine exited after %v, want within %v plus slack", took, lineLinger)
	}

	line.add(time.Now(), &sink, []byte("again"))
	waitFor(t, "the next frame", func() bool { return sink.count() == frames+1 })
	line.close()
	closed := time.Now()
	waitFor(t, "the closed line's drain goroutine to exit", func() bool { _, running := lineState(&line); return !running })
	if took := time.Since(closed); took > lineLinger/2 {
		t.Fatalf("drain goroutine outlived close by %v", took)
	}
	if starts, _ := lineState(&line); starts != 2 {
		t.Fatalf("%d drain goroutines started, want 2", starts)
	}
}

// TestDelayLineClose: close discards what is pending, and once it has
// returned nothing is handed over — not even a frame that was due at that
// very moment on another goroutine.
func TestDelayLineClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		var line delayLine
		var delivered atomic.Int64
		sink := sinkFunc(func([]byte) { delivered.Add(1) })
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					line.add(time.Now().Add(time.Duration(i%300)*time.Microsecond), sink, nil)
				}
			}
		}()
		time.Sleep(time.Duration(round%5) * 300 * time.Microsecond)
		line.close()
		atClose := delivered.Load()
		time.Sleep(2 * time.Millisecond) // the sender keeps adding meanwhile
		close(stop)
		wg.Wait()
		if got := delivered.Load(); got != atClose {
			t.Fatalf("round %d: %d frames handed over after close returned", round, got-atClose)
		}
	}
}

type sinkFunc func([]byte)

func (f sinkFunc) deliver(frame []byte) { f(frame) }

// countingTransport is an inner transport that counts what reaches it.
type countingTransport struct {
	sends atomic.Int64
	inbox chan []byte
}

func (c *countingTransport) Send([]byte)            { c.sends.Add(1) }
func (c *countingTransport) Receive() <-chan []byte { return c.inbox }
func (c *countingTransport) FrameBudget() int       { return 0 }
func (c *countingTransport) Close() error           { return nil }

// TestChaosCloseForwardsNothingAfter: once Close has returned, no frame
// the model delayed reaches the wrapped transport, whatever was on the
// line and whoever is still sending.
func TestChaosCloseForwardsNothingAfter(t *testing.T) {
	for round := 0; round < 20; round++ {
		inner := &countingTransport{inbox: make(chan []byte)}
		c := NewChaos(inner, ChaosConfig{
			// Every frame is delayed, so every forward goes through the line.
			Model: channel.Reliable{D: channel.UniformDelay{Min: 1, Max: 4}},
			Unit:  100 * time.Microsecond,
			Seed:  uint64(round),
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Send([]byte("f"))
				}
			}
		}()
		waitFor(t, "delayed frames to start arriving", func() bool { return inner.sends.Load() > 0 })
		c.Close()
		atClose := inner.sends.Load()
		time.Sleep(2 * time.Millisecond)
		close(stop)
		wg.Wait()
		if got := inner.sends.Load(); got != atClose {
			t.Fatalf("round %d: %d frames forwarded after Close returned", round, got-atClose)
		}
		if st := c.StatsDetail(); st.Delayed != st.Sends || st.Drops != 0 || uint64(atClose) > st.Delayed {
			t.Fatalf("round %d: stats %+v with %d forwarded", round, st, atClose)
		}
	}
}

// delayedMesh builds a mesh whose every copy is 10 ms in flight.
func delayedMesh(n, inboxDepth int) *Mesh {
	return NewMesh(MeshConfig{
		N: n, Link: channel.Reliable{D: channel.FixedDelay(10)}, Unit: time.Millisecond,
		Seed: 5, InboxDepth: inboxDepth,
	})
}

// drained reads tr's inbox until it closes and returns what it held.
func drained(t *testing.T, tr Transport) int {
	t.Helper()
	n := 0
	for {
		select {
		case _, ok := <-tr.Receive():
			if !ok {
				return n
			}
			n++
		case <-time.After(5 * time.Second):
			t.Fatal("receive channel did not close")
		}
	}
}

// TestMeshInFlightCopiesDropped: copies still on the delay line when
// their destination is closed — by its own Close, by Reopen, or by the
// mesh's Close — are never delivered, neither to the closed endpoint nor
// to the one Reopen put in its place; a mesh nobody closes is left
// without a goroutine once its line has drained.
func TestMeshInFlightCopiesDropped(t *testing.T) {
	before := runtime.NumGoroutine()
	m := delayedMesh(3, 0)
	ep1, ep2 := m.Endpoint(1), m.Endpoint(2)
	for i := 0; i < 5; i++ {
		m.Endpoint(0).Send([]byte{byte(i)})
	}
	ep1.Close()
	fresh := m.Reopen(2)
	if n := drained(t, ep1); n != 0 {
		t.Fatalf("endpoint closed with its copies in flight received %d frames", n)
	}
	if n := drained(t, ep2); n != 0 {
		t.Fatalf("endpoint replaced with its copies in flight received %d frames", n)
	}
	// Endpoint 0's own copies arrive, which also says the line is past
	// everything sent above.
	for i := 0; i < 5; i++ {
		select {
		case <-m.Endpoint(0).Receive():
		case <-time.After(5 * time.Second):
			t.Fatal("sender's self-link copies did not arrive")
		}
	}
	waitFor(t, "the drain goroutine to exit (mesh not closed)", func() bool { return runtime.NumGoroutine() <= before })
	select {
	case f := <-fresh.Receive():
		t.Fatalf("reopened endpoint received %v, sent before it existed", f)
	default:
	}

	m.Endpoint(0).Send([]byte("x"))
	m.Close()
	if n := drained(t, m.Endpoint(0)); n != 0 {
		t.Fatalf("mesh closed with copies in flight delivered %d frames", n)
	}
	waitFor(t, "the drain goroutine to exit (mesh closed)", func() bool { return runtime.NumGoroutine() <= before })
}

// TestMeshDelayedOverflowCounted: a copy that comes off the delay line to
// a full inbox is shed and counted, like one delivered inline.
func TestMeshDelayedOverflowCounted(t *testing.T) {
	m := delayedMesh(2, 2)
	defer m.Close()
	const sends = 6
	for i := 0; i < sends; i++ {
		m.Endpoint(0).Send([]byte{byte(i)})
	}
	want := uint64(2 * (sends - 2))
	waitFor(t, "the overflows to be counted", func() bool { return m.Overflows() == want })
	if _, drops := m.Stats(); drops != want {
		t.Fatalf("mesh drops = %d, want %d", drops, want)
	}
	// Arrival order is send order: the inboxes hold the first two frames.
	for i := 0; i < 2; i++ {
		if f := <-m.Endpoint(1).Receive(); f[0] != byte(i) {
			t.Fatalf("inbox position %d holds frame %d", i, f[0])
		}
	}
}
