package host

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// garbage is bytes DecodePrefix rejects.
var garbage = []byte{0xff, 0xff, 0xff, 0xff}

func msg(i uint64, body string) wire.Message {
	return wire.NewMsg(wire.MsgID{Tag: label(i), Body: body})
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestLoopFrameIn(t *testing.T) {
	if _, _, err := wire.DecodePrefix(garbage); err == nil {
		t.Fatal("garbage decodes")
	}
	a, b := msg(1, "a"), msg(2, "b")
	for _, tc := range []struct {
		name  string
		frame []byte
		want  []wire.Message
	}{
		{"one message", a.Encode(nil), []wire.Message{a}},
		{"batch", concat(a.Encode(nil), b.Encode(nil)), []wire.Message{a, b}},
		// A corrupt tail drops the remainder only, even a valid
		// message behind it.
		{"corrupt tail", concat(a.Encode(nil), garbage, b.Encode(nil)), []wire.Message{a}},
		{"truncated tail", concat(a.Encode(nil), b.Encode(nil)[:3]), []wire.Message{a}},
		// A frame counts as bad only when nothing decoded from it.
		{"garbage", garbage, nil},
		{"empty", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLoop(Core{Proc: solo(1)}, LoopConfig{}, 0)
			out, err := l.OnFrame(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			if out.Received != len(tc.want) {
				t.Fatalf("received %d messages, want %d", out.Received, len(tc.want))
			}
			if (out.Bad == 1) != (len(tc.want) == 0) || out.Good+out.Bad != 1 {
				t.Fatalf("good %d, bad %d with %d messages decoded", out.Good, out.Bad, len(tc.want))
			}
			// Each MSG received reached the algorithm, in order: a solo
			// Majority answers it with an ACK naming it.
			if len(out.Msgs) != len(tc.want) {
				t.Fatalf("%d replies to %d messages", len(out.Msgs), len(tc.want))
			}
			for i, m := range out.Msgs {
				if m.ID() != tc.want[i].ID() {
					t.Fatalf("reply %d names %v, want %v", i, m.ID(), tc.want[i].ID())
				}
			}
		})
	}
}

// TestLoopPacking: every message lands in order, byte for byte, at its
// span; batched frames stay within the budget unless one message alone
// exceeds it; unbatched, frames == messages.
func TestLoopPacking(t *testing.T) {
	var s urb.Step
	for i := uint64(0); i < 12; i++ {
		s.Broadcasts = append(s.Broadcasts, msg(i, string(bytes.Repeat([]byte{'x'}, int(i)))))
	}
	big := msg(99, string(bytes.Repeat([]byte{'y'}, 200)))
	s.Broadcasts = append(s.Broadcasts, big, msg(100, "after"))
	const budget = 96
	for _, tc := range []struct {
		name       string
		cfg        LoopConfig
		wantFrames func(frames int) bool
	}{
		{"batched", LoopConfig{Batch: true, Budget: budget}, func(f int) bool { return f > 1 && f < len(s.Broadcasts)/2 }},
		{"batched unbudgeted", LoopConfig{Batch: true}, func(f int) bool { return f == 1 }},
		{"unbatched", LoopConfig{Budget: budget}, func(f int) bool { return f == len(s.Broadcasts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLoop(Core{Proc: solo(1)}, tc.cfg, 0)
			out, err := l.Absorb(s)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.wantFrames(len(out.Frames)) {
				t.Fatalf("%d messages packed into %d frames", len(s.Broadcasts), len(out.Frames))
			}
			if len(out.Msgs) != len(s.Broadcasts) || len(out.Spans) != len(s.Broadcasts) {
				t.Fatalf("%d msgs and %d spans for %d broadcasts", len(out.Msgs), len(out.Spans), len(s.Broadcasts))
			}
			var want []byte
			for i, m := range s.Broadcasts {
				want = m.Encode(want)
				sp := out.Spans[i]
				if got := out.Frames[sp.Frame][sp.Start:sp.End]; !bytes.Equal(got, m.Encode(nil)) {
					t.Fatalf("span %d does not hold message %d", i, i)
				}
			}
			if got := bytes.Join(out.Frames, nil); !bytes.Equal(got, want) {
				t.Fatal("frames are not the concatenated encodings in order")
			}
			for i, f := range out.Frames {
				if tc.cfg.Budget > 0 && len(f) > tc.cfg.Budget && len(f) != big.EncodedSize() {
					t.Fatalf("frame %d is %d bytes, over the %d budget", i, len(f), tc.cfg.Budget)
				}
			}
		})
	}
}

// shown counts the messages a process was shown.
type shown struct {
	*urb.Quiescent
	n int
}

func (s *shown) Receive(m wire.Message) urb.Step { s.n++; return s.Quiescent.Receive(m) }

// TestLoopReceivePaths: the loop feeds this package's processes in place
// (urb.ReceiveFunc), and any other process through Receive — here a
// decorator that embeds a Quiescent and overrides Receive, so a promoted
// ReceiveTo must not bypass it. SetProc re-decides for the new process.
func TestLoopReceivePaths(t *testing.T) {
	msg := wire.NewMsg(wire.MsgID{Tag: label(3), Body: "m"})
	dec := &shown{Quiescent: urb.NewQuiescent(view{{Label: label(1), Number: 1}}, ident.NewSource(xrand.New(4)), urb.Config{})}
	l := NewLoop(Core{Proc: dec}, LoopConfig{Batch: true}, 0)
	if out, err := l.OnFrame(msg.Encode(nil)); err != nil || dec.n != 1 || len(out.Msgs) != 1 {
		t.Fatalf("decorator shown %d receptions, %d replies (err %v); want 1 and 1", dec.n, len(out.Msgs), err)
	}
	next := solo(2)
	l.SetProc(next)
	out, err := l.OnFrame(msg.Encode(nil))
	if err != nil || dec.n != 1 {
		t.Fatalf("the replaced process was fed (%d receptions, err %v)", dec.n, err)
	}
	if len(out.Msgs) != 1 || out.Msgs[0].Kind != wire.KindAck || !next.KnowsMsg(msg.ID()) {
		t.Fatalf("the new process answered %v", out.Msgs)
	}
}

// TestLoopServeSnap: a SNAPREQ is served, never shown to the algorithm,
// and its chunks leave in frames within the budget.
func TestLoopServeSnap(t *testing.T) {
	for _, batch := range []bool{true, false} {
		p, _ := donor(t, 9, 12)
		proc := &shown{Quiescent: p}
		l := NewLoop(Core{Proc: proc}, LoopConfig{Batch: batch, Budget: testBudget}, 0)
		out, err := l.OnFrame(wire.NewSnapReq(0, 0).Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Msgs) != ServeWindow {
			t.Fatalf("batch=%v: %d chunks served, want %d", batch, len(out.Msgs), ServeWindow)
		}
		for _, m := range out.Msgs {
			if m.Kind != wire.KindSnapChunk {
				t.Fatalf("batch=%v: served a %v", batch, m.Kind)
			}
		}
		for i, f := range out.Frames {
			if len(f) > testBudget {
				t.Fatalf("batch=%v: frame %d is %d bytes, budget %d", batch, i, len(f), testBudget)
			}
		}
		if !batch && len(out.Frames) != len(out.Msgs) {
			t.Fatalf("unbatched: %d frames for %d chunks", len(out.Frames), len(out.Msgs))
		}
		if proc.n != 0 {
			t.Fatal("the algorithm saw join traffic")
		}
	}
}

// TestLoopStoreErrorExposesNothing: a Step that fails to persist comes
// back with the error and nothing to deliver or send, whichever entry
// point produced it.
func TestLoopStoreErrorExposesNothing(t *testing.T) {
	t.Run("commit", func(t *testing.T) {
		st := newRecStore()
		st.failWAL = 1
		l := NewLoop(Core{Proc: solo(1), Store: st}, LoopConfig{Batch: true}, 0)
		_, s := l.Proc.Broadcast([]byte("doomed"))
		out, err := l.Absorb(s)
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want the store's", err)
		}
		if len(out.Deliveries)+len(out.Msgs)+len(out.Frames) != 0 {
			t.Fatalf("failed Step exposed %d deliveries, %d messages, %d frames",
				len(out.Deliveries), len(out.Msgs), len(out.Frames))
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		st := newRecStore()
		l := NewLoop(Core{Proc: solo(1), Store: st}, LoopConfig{Batch: true, CheckpointEvery: 1}, 0)
		_, s := l.Proc.Broadcast([]byte("grows the wal"))
		if _, err := l.Absorb(s); err != nil {
			t.Fatal(err)
		}
		st.failSnap = true
		out, err := l.OnTick(1)
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want the store's", err)
		}
		if len(out.Deliveries)+len(out.Msgs)+len(out.Frames) != 0 || out.Checkpoint != 0 {
			t.Fatal("a failed checkpoint still ran the tick")
		}
	})
}

// TestLoopCheckpointRule: a tick checkpoints only once the cadence has
// elapsed since the last checkpoint and the WAL grew since.
func TestLoopCheckpointRule(t *testing.T) {
	st := newRecStore()
	l := NewLoop(Core{Proc: solo(1), Store: st}, LoopConfig{CheckpointEvery: 10}, 0)
	broadcast := func() {
		t.Helper()
		_, s := l.Proc.Broadcast([]byte("x"))
		if out, err := l.Absorb(s); err != nil || out.WALRecords == 0 {
			t.Fatalf("broadcast wrote %d WAL records (err %v)", out.WALRecords, err)
		}
	}
	tick := func(now int64, want bool) {
		t.Helper()
		out, err := l.OnTick(now)
		if err != nil {
			t.Fatal(err)
		}
		if out.WALRecords != 0 {
			t.Fatalf("tick at %d wrote %d WAL records", now, out.WALRecords)
		}
		if got := out.Checkpoint > 0; got != want {
			t.Fatalf("tick at %d: checkpointed %v, want %v", now, got, want)
		}
	}
	broadcast()
	tick(5, false)  // WAL grew, cadence not elapsed
	tick(10, true)  // both
	tick(30, false) // cadence elapsed, WAL unchanged since
	broadcast()
	tick(35, true)
	broadcast()
	tick(40, false) // cadence counts from the last checkpoint
	tick(45, true)
	snaps := 0
	for _, op := range st.ops {
		if op == "snap" {
			snaps++
		}
	}
	if snaps != 3 {
		t.Fatalf("%d snapshots saved, want 3 (ops %v)", snaps, st.ops)
	}
}

// TestLoopTickAllocs: a warm Task-1 tick over a 200-message MSG_i
// allocates what Proc.Tick allocates plus one buffer per frame, and no
// more; the frames are the ones wire.EncodeBatch packs from the same
// messages, byte for byte.
func TestLoopTickAllocs(t *testing.T) {
	const budget = 1024
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	for i := uint64(0); i < 200; i++ {
		p.Receive(msg(i+1, fmt.Sprintf("payload-%04d-%048d", i, i)))
	}
	l := NewLoop(Core{Proc: p}, LoopConfig{Batch: true, Budget: budget}, 0)
	for range 3 {
		if _, err := l.OnTick(0); err != nil {
			t.Fatal(err)
		}
	}
	tick := testing.AllocsPerRun(20, func() { _ = p.Tick() })
	var out *Out
	got := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = l.OnTick(0); err != nil {
			t.Fatal(err)
		}
	})
	if len(out.Msgs) != 200 || len(out.Frames) < 2 {
		t.Fatalf("tick sent %d messages in %d frames, want 200 in several", len(out.Msgs), len(out.Frames))
	}
	if want := tick + float64(len(out.Frames)); got != want {
		t.Errorf("OnTick allocates %v, want %v (Tick's %v and one per frame)", got, want, tick)
	}
	want := wire.EncodeBatch(out.Msgs, budget)
	if len(out.Frames) != len(want) {
		t.Fatalf("%d frames, EncodeBatch packs %d", len(out.Frames), len(want))
	}
	for i := range want {
		if !bytes.Equal(out.Frames[i], want[i]) {
			t.Fatalf("frame %d differs from EncodeBatch's", i)
		}
	}
}
