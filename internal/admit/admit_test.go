package admit

import (
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/transport"
	"anonurb/internal/wire"
)

// --- detector ---

func testDetector(cfg Config) *detector { return newDetector(cfg.withDefaults()) }

// TestDetectorUnderRateNeverDemotes: a flow arriving strictly below its
// fair share must never trip, however long it runs.
func TestDetectorUnderRateNeverDemotes(t *testing.T) {
	d := testDetector(Config{Rate: 1 << 20, Burst: 16 << 10})
	// 512 KB/s against a 1 MB/s share: 512 bytes every millisecond.
	now := int64(0)
	for i := 0; i < 10_000; i++ {
		now += int64(time.Millisecond)
		if d.charge(42, 512, now) {
			t.Fatalf("under-rate flow demoted at charge %d", i)
		}
	}
	if d.demotions.Load() != 0 {
		t.Fatalf("demotions counted: %d", d.demotions.Load())
	}
}

// TestDetectorFloodDemotesAndRecovers: a flow far above its share trips
// within Burst bytes, stays demoted for Penalty, and is re-admitted
// after the penalty if it backs off.
func TestDetectorFloodDemotesAndRecovers(t *testing.T) {
	cfg := Config{Rate: 1 << 20, Burst: 8 << 10, Penalty: 100 * time.Millisecond}
	d := testDetector(cfg)
	now := int64(time.Millisecond)
	var sent int
	demotedAt := -1
	for i := 0; i < 100; i++ {
		if d.charge(7, 4096, now) {
			demotedAt = i
			break
		}
		sent += 4096
	}
	if demotedAt < 0 {
		t.Fatal("flood never demoted")
	}
	if sent > 2*cfg.Burst {
		t.Fatalf("demotion took %d bytes, over twice the %d burst", sent, cfg.Burst)
	}
	if !d.charge(7, 1, now+int64(cfg.Penalty)-1) {
		t.Fatal("flow re-admitted before the penalty expired")
	}
	// After the penalty the bucket has leaked empty (Rate drains Burst
	// in well under the wait) and a polite flow is admitted again.
	later := now + int64(cfg.Penalty) + int64(time.Second)
	if d.charge(7, 1, later) {
		t.Fatal("flow still demoted after penalty + backoff")
	}
}

// TestDetectorFlowZeroAlwaysAdmitted: beat-family traffic reports flow
// 0 and must bypass metering entirely.
func TestDetectorFlowZeroAlwaysAdmitted(t *testing.T) {
	d := testDetector(Config{Rate: 1, Burst: 1})
	for i := 0; i < 100; i++ {
		if d.charge(0, 1<<20, int64(i+1)) {
			t.Fatal("flow 0 demoted")
		}
	}
}

// TestDetectorEviction: with more live flows than table slots the
// smallest bucket in the probe window is recycled, and demoted buckets
// survive the pressure.
func TestDetectorEviction(t *testing.T) {
	d := testDetector(Config{Flows: 8, Rate: 1 << 10, Burst: 1 << 10, Penalty: time.Hour})
	now := int64(time.Millisecond)
	// Demote one heavy hitter.
	for i := 0; i < 64 && !d.charge(99, 1024, now); i++ {
	}
	// Spray far more flows than the table holds.
	for f := uint64(1); f <= 64; f++ {
		d.charge(f*2+200, 16, now)
	}
	if d.evictions.Load() == 0 {
		t.Fatal("no evictions under table pressure")
	}
	if !d.charge(99, 1, now+1) {
		t.Fatal("demoted heavy hitter was evicted by flow spray")
	}
}

// --- transport stage ---

// fakeInner is a loopback transport: frames pushed with inject() appear
// on Receive, sends are collected.
type fakeInner struct {
	in     chan []byte
	sent   [][]byte
	closed bool
}

func newFakeInner() *fakeInner { return &fakeInner{in: make(chan []byte, 64)} }

func (f *fakeInner) Send(frame []byte)      { f.sent = append(f.sent, frame) }
func (f *fakeInner) Receive() <-chan []byte { return f.in }
func (f *fakeInner) FrameBudget() int       { return 60 << 10 }
func (f *fakeInner) Close() error           { f.closed = true; close(f.in); return nil }
func (f *fakeInner) inject(msgs ...wire.Message) {
	var frame []byte
	for _, m := range msgs {
		frame = m.Encode(frame)
	}
	f.in <- frame
}

func msgFor(flow uint64, body string) wire.Message {
	return wire.NewMsg(wire.MsgID{Tag: ident.Tag{Hi: flow, Lo: 1}, Body: body})
}

// drain collects frames from the stage until it has n or times out.
func drain(t *testing.T, tr *Transport, n int) [][]byte {
	t.Helper()
	var got [][]byte
	deadline := time.After(2 * time.Second)
	for len(got) < n {
		select {
		case f, ok := <-tr.Receive():
			if !ok {
				t.Fatalf("stage closed after %d/%d frames", len(got), n)
			}
			got = append(got, f)
		case <-deadline:
			t.Fatalf("timed out after %d/%d frames", len(got), n)
		}
	}
	return got
}

// TestFairnessBaselineBudget: WithDefaults keeps explicit lane depths
// and fills every zero field, so a FIFO baseline derived from a fair
// configuration carries the same total lane budget.
func TestFairnessBaselineBudget(t *testing.T) {
	cfg := Config{HighDepth: 100, LowDepth: 40}.WithDefaults()
	if cfg.HighDepth != 100 || cfg.LowDepth != 40 {
		t.Fatalf("WithDefaults rewrote explicit depths: %+v", cfg)
	}
	if d := (Config{}).WithDefaults(); d.HighDepth <= 0 || d.LowDepth <= 0 ||
		d.Rate <= 0 || d.Burst <= 0 || d.Penalty <= 0 || d.Flows <= 0 {
		t.Fatalf("WithDefaults left zero fields: %+v", d)
	}
}

// TestWrapPassesAdmittedTraffic: polite traffic flows through the stage
// unchanged, and Send is a passthrough.
func TestWrapPassesAdmittedTraffic(t *testing.T) {
	inner := newFakeInner()
	tr := Wrap(inner, Config{})
	defer tr.Close()
	inner.inject(msgFor(5, "hello"))
	frames := drain(t, tr, 1)
	if msgs, err := wire.DecodeBatch(frames[0]); err != nil || len(msgs) != 1 || string(msgs[0].Body) != "hello" {
		t.Fatalf("frame mangled: %v %v", msgs, err)
	}
	tr.Send([]byte("outbound"))
	if len(inner.sent) != 1 || string(inner.sent[0]) != "outbound" {
		t.Fatal("Send must pass through to the inner transport")
	}
	st := tr.Stats()
	if st.AdmittedMsgs != 1 || st.DemotedMsgs != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if tr.Inner() != transport.Transport(inner) {
		t.Fatal("Inner must expose the wrapped transport")
	}
}

// TestWrapSplitsMixedFrames: a frame mixing a demoted flow's messages
// with a victim's must be split so the victim's sub-frame is admitted.
func TestWrapSplitsMixedFrames(t *testing.T) {
	// Burst sits between the victim's message size (~30 B) and the
	// flood's (4 KB): the flood trips on its first message, the victim
	// never does.
	tr := Wrap(newFakeInner(), Config{Rate: 1 << 10, Burst: 2 << 10, Penalty: time.Hour,
		HighDepth: 16, LowDepth: 16})
	defer tr.Close()
	inner := tr.Inner().(*fakeInner)

	big := string(make([]byte, 4096))
	// Trip the flood flow (first frame may be admitted while the bucket
	// fills; penalty then pins it demoted).
	inner.inject(msgFor(666, big))
	inner.inject(msgFor(666, big))
	// Mixed frame: flood, victim, flood.
	inner.inject(msgFor(666, big), msgFor(5, "victim"), msgFor(666, big))

	// The victim's sub-frame must come out admitted and alone.
	deadline := time.After(2 * time.Second)
	for {
		var frame []byte
		var ok bool
		select {
		case frame, ok = <-tr.Receive():
			if !ok {
				t.Fatal("stage closed before the victim frame")
			}
		case <-deadline:
			t.Fatal("victim frame never emitted")
		}
		msgs, err := wire.DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if string(m.Body) == "victim" {
				if len(msgs) != 1 {
					t.Fatalf("victim rode with %d flood messages", len(msgs)-1)
				}
				st := tr.Stats()
				if st.SplitFrames == 0 {
					t.Fatal("mixed frame not counted as split")
				}
				if st.Demotions == 0 {
					t.Fatal("flood flow not demoted")
				}
				return
			}
		}
	}
}

// TestWrapFIFOMode: with FIFO set the detector is off — everything is
// admitted in arrival order, nothing is split or demoted.
func TestWrapFIFOMode(t *testing.T) {
	tr := Wrap(newFakeInner(), Config{FIFO: true, Rate: 1, Burst: 1})
	defer tr.Close()
	inner := tr.Inner().(*fakeInner)
	big := string(make([]byte, 4096))
	inner.inject(msgFor(666, big), msgFor(5, "victim"))
	inner.inject(msgFor(666, big))
	frames := drain(t, tr, 2)
	if msgs, _ := wire.DecodeBatch(frames[0]); len(msgs) != 2 {
		t.Fatalf("FIFO split a frame: %d msgs", len(msgs))
	}
	st := tr.Stats()
	if st.Demotions != 0 || st.SplitFrames != 0 || st.DemotedMsgs != 0 {
		t.Fatalf("FIFO stage ran the detector: %+v", st)
	}
}

// TestWrapLowLaneSheds: when the demoted lane is full its frames are
// dropped and attributed to the offending flow; Overflows includes
// them.
func TestWrapLowLaneSheds(t *testing.T) {
	tr := Wrap(newFakeInner(), Config{Rate: 1, Burst: 1, Penalty: time.Hour,
		HighDepth: 16, LowDepth: 1})
	defer tr.Close()
	inner := tr.Inner().(*fakeInner)
	big := string(make([]byte, 8192))
	for i := 0; i < 64; i++ {
		inner.inject(msgFor(666, big))
	}
	deadline := time.Now().Add(2 * time.Second)
	for tr.Stats().LowDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := tr.Stats()
	if st.LowDrops == 0 {
		t.Fatal("full low lane never shed")
	}
	if tr.Overflows() < st.LowDrops {
		t.Fatalf("Overflows %d < LowDrops %d", tr.Overflows(), st.LowDrops)
	}
	var flood *FlowStats
	for i := range st.Flows {
		if st.Flows[i].Flow == 666 {
			flood = &st.Flows[i]
		}
	}
	if flood == nil || !flood.Demoted || flood.Drops == 0 {
		t.Fatalf("flood flow accounting missing: %+v", st.Flows)
	}
}

// TestWrapCloseDrainsCleanly: Close must close the inner transport and
// eventually close the stage's Receive channel.
func TestWrapCloseDrainsCleanly(t *testing.T) {
	inner := newFakeInner()
	tr := Wrap(inner, Config{})
	inner.inject(msgFor(1, "tail"))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !inner.closed {
		t.Fatal("inner transport not closed")
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-tr.Receive():
			if !ok {
				return // channel closed: clean wind-down
			}
		case <-deadline:
			t.Fatal("stage Receive never closed")
		}
	}
}

// TestWrapUndecodableFrame: garbage frames must not wedge the stage —
// they ride through on the current verdict.
func TestWrapUndecodableFrame(t *testing.T) {
	inner := newFakeInner()
	tr := Wrap(inner, Config{})
	defer tr.Close()
	inner.in <- []byte{0xde, 0xad, 0xbe, 0xef}
	frames := drain(t, tr, 1)
	if len(frames[0]) != 4 {
		t.Fatal("garbage frame mangled")
	}
}
