package host

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/snapxfer"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// TestLoopRetainsNoFrameBytes: a decoded message borrows its body from
// the received frame, so whatever keeps a body past the call must copy
// it. One frame carrying every body-bearing kind a host receives (MSG,
// the ACK forms, SNAPCHUNKs) goes through a Loop and a Joiner for each
// algorithm; then the frame is scribbled over. The delivered identity,
// the state fingerprint, the tracer's bodies, the reply frames and the
// assembled container must all be unchanged; and once OnFrame has
// returned, the loop holds no reference to a frame.
func TestLoopRetainsNoFrameBytes(t *testing.T) {
	id := wire.MsgID{Tag: label(7), Body: "retained payload"}
	src, _ := donor(t, 4, 6)
	container := containerOf(src)
	chunks := snapxfer.NewDonor(container, testBudget).Serve(0, 1<<10)
	if len(chunks) < 2 {
		t.Fatalf("container served as %d chunks, want several", len(chunks))
	}
	only := []ident.Tag{label(1)}
	for _, tc := range []struct {
		name string
		proc urb.Process
		acks []wire.Message
	}{
		{"majority", urb.NewMajority(3, ident.NewSource(xrand.New(1)), urb.Config{}),
			[]wire.Message{wire.NewAck(id, label(100)), wire.NewAck(id, label(101))}},
		{"quiescent", urb.NewQuiescent(view{{Label: label(1), Number: 2}}, ident.NewSource(xrand.New(2)), urb.Config{DeltaAcks: true}),
			[]wire.Message{
				wire.NewAckSnapshot(id, label(100), 1, only),
				wire.NewAckSnapshot(id, label(101), 1, only),
				wire.NewAckDelta(id, label(100), 1, nil, nil),
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := wire.NewMsg(id).Encode(nil)
			for _, m := range append(tc.acks, chunks...) {
				frame = m.Encode(frame)
			}
			tr := obs.New(0, 64, nil)
			tc.proc.(obs.Traceable).SetTracer(tr)
			l := NewLoop(Core{Proc: tc.proc}, LoopConfig{Batch: true, Tracer: tr}, 0)
			out, err := l.OnFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Deliveries) != 1 || len(out.Frames) != 1 {
				t.Fatalf("%d deliveries and %d reply frames, want 1 and 1", len(out.Deliveries), len(out.Frames))
			}
			delivered := out.Deliveries[0].ID
			fp := tc.proc.(interface{ Fingerprint() string }).Fingerprint()
			j := NewJoiner(0, 0, func(int) int64 { return 1 << 40 })
			var joined []byte
			for m := range Messages(frame) {
				if c, _ := j.Offer(m, 0); c != nil {
					joined = c
				}
			}
			if joined == nil {
				t.Fatal("the joiner did not assemble the container")
			}

			for i := range frame {
				frame[i] = 0x11
			}

			if delivered != id {
				t.Errorf("delivered %v, want %v", delivered, id)
			}
			if got := tc.proc.(interface{ Fingerprint() string }).Fingerprint(); got != fp {
				t.Errorf("fingerprint changed with the frame:\n%s\nwant\n%s", got, fp)
			}
			for _, e := range tr.Events() {
				if e.Msg.Tag == id.Tag && e.Msg.Body != id.Body {
					t.Errorf("tracer event %v holds body %q, want %q", e.Kind, e.Msg.Body, id.Body)
				}
			}
			for m := range Messages(out.Frames[0]) {
				if m.ID() != id {
					t.Errorf("reply %v names %v, want %v", m.Kind, m.ID(), id)
				}
			}
			if !bytes.Equal(joined, container) {
				t.Error("assembled container changed with the frame")
			}
			if loopPinsFrame(l, wire.NewMsg(id).Encode(nil)) {
				t.Error("the loop still references a frame after OnFrame returned")
			}
		})
	}
}

// loopPinsFrame feeds l a heap copy of frame, drops the copy and reports
// whether it stays reachable: a finalizer on it runs only once nothing
// references it. OnFrame's decode target borrows the frame's bytes, so
// the loop must let go of it before returning.
func loopPinsFrame(l *Loop, frame []byte) bool {
	freed := make(chan struct{})
	func() {
		box := new([1 << 10]byte)
		runtime.SetFinalizer(box, func(*[1 << 10]byte) { close(freed) })
		l.OnFrame(box[:copy(box[:], frame)])
	}()
	defer runtime.KeepAlive(l)
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
	return true
}
