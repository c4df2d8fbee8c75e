package host

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// burstProc is the process both sides of the burst tests run: Algorithm
// 2 with delta ACKs, delivering once two ackers carry label(1).
func burstProc() *urb.Quiescent {
	det := view{fd.Pair{Label: label(1), Number: 2}}
	return urb.NewQuiescent(det, ident.NewSource(xrand.New(44)), urb.Config{DeltaAcks: true})
}

// burstFrames draws one burst of k frames over the message pool ids: MSG
// copies, snapshot and change ACKΔs from two peer ackers, ACKREQs naming
// tag_acks the process has sent (own), batches of those, and a frame
// nothing decodes from.
func burstFrames(r *xrand.Source, ids []wire.MsgID, own []wire.Message, k int) [][]byte {
	one := func() wire.Message {
		id := ids[r.Intn(len(ids))]
		acker := label(100 + uint64(r.Intn(2)))
		switch r.Intn(5) {
		case 0, 1:
			return wire.NewMsg(id)
		case 2:
			return wire.NewAckSnapshot(id, acker, 1, []ident.Tag{label(1)})
		case 3:
			return wire.NewAckDelta(id, acker, 2, []ident.Tag{label(2)}, nil)
		default:
			if len(own) == 0 {
				return wire.NewMsg(id)
			}
			a := own[r.Intn(len(own))]
			return wire.NewAckResync(a.ID(), a.AckTag)
		}
	}
	frames := make([][]byte, k)
	for i := range frames {
		if r.Intn(6) == 0 {
			frames[i] = append([]byte(nil), garbage...)
			continue
		}
		for range 1 + r.Intn(3) {
			frames[i] = one().Encode(frames[i])
		}
	}
	return frames
}

// loopRun is what one side of TestLoopBurstMatchesFrames saw.
type loopRun struct {
	msgs       []wire.Message
	wire       []byte
	deliveries []urb.Delivery
	received   int
	good, bad  int
	steps      int
}

// take records one call's Out, copying what the next call reuses.
func (r *loopRun) take(out *Out, err error) error {
	if err != nil {
		return err
	}
	r.msgs = append(r.msgs, out.Msgs...)
	r.wire = append(r.wire, bytes.Join(out.Frames, nil)...)
	r.deliveries = append(r.deliveries, out.Deliveries...)
	r.received += out.Received
	r.good += out.Good
	r.bad += out.Bad
	r.steps++
	return nil
}

// feed hands frames to l as a driver does: OnFrames until every frame is
// taken, recording each call's Out.
func feed(l *Loop, r *loopRun, frames [][]byte) error {
	for len(frames) > 0 {
		out, err := l.OnFrames(frames)
		taken := out.Good + out.Bad
		if err := r.take(out, err); err != nil {
			return err
		}
		frames = frames[taken:]
	}
	return nil
}

// TestLoopBurstMatchesFrames: OnFrames over a burst does what one OnFrame
// call per frame does, up to frame boundaries. Two identical processes
// take the same bursts — MSG, ACKΔ, ACKREQ and bad frames mixed, with
// ticks between — one burst at a time and one frame at a time. They must
// send the same messages in the same order (so the same bytes: frames
// are pure concatenation), deliver the same messages in the same order,
// count the same frames good and bad and end in the same state. Without
// a store every burst is one call. With one, a call ends at the first
// frame that produced anything, so both write the same WAL, record for
// record, and recover to the same state from their stores.
func TestLoopBurstMatchesFrames(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			var stB, stF *recStore
			coreB, coreF := Core{Proc: burstProc()}, Core{Proc: burstProc()}
			if durable {
				stB, stF = newRecStore(), newRecStore()
				coreB.Store, coreF.Store = stB, stF
			}
			burst := NewLoop(coreB, LoopConfig{Batch: true, Budget: testBudget}, 0)
			single := NewLoop(coreF, LoopConfig{Batch: true, Budget: testBudget}, 0)
			var gotB, gotF loopRun
			ids := make([]wire.MsgID, 12)
			for i := range ids {
				ids[i] = wire.MsgID{Tag: label(1000 + uint64(i)), Body: string(rune('a' + i))}
			}
			r := xrand.New(5)
			var own []wire.Message
			bursts := 0
			for b := range 40 {
				sent := len(gotB.msgs)
				frames := burstFrames(r, ids, own, 1+b%7)
				if err := feed(burst, &gotB, frames); err != nil {
					t.Fatal(err)
				}
				bursts++
				for _, f := range frames {
					if err := gotF.take(single.OnFrame(f)); err != nil {
						t.Fatal(err)
					}
				}
				if b%4 == 3 { // a tick lets ACKREQs be answered again
					if err := gotB.take(burst.OnTick(int64(b))); err != nil {
						t.Fatal(err)
					}
					if err := gotF.take(single.OnTick(int64(b))); err != nil {
						t.Fatal(err)
					}
					bursts++
				}
				for _, m := range gotB.msgs[sent:] {
					if m.Kind == wire.KindAckDelta {
						own = append(own, m)
					}
				}
			}

			if len(gotB.deliveries) == 0 || len(own) == 0 || gotB.bad == 0 {
				t.Fatalf("the bursts exercised too little: %d deliveries, %d own ACKs, %d bad frames",
					len(gotB.deliveries), len(own), gotB.bad)
			}
			if !durable && gotB.steps != bursts || gotB.steps >= gotF.steps {
				t.Fatalf("%d calls for %d bursts, against %d frame calls", gotB.steps, bursts, gotF.steps)
			}
			if !reflect.DeepEqual(gotB.msgs, gotF.msgs) {
				t.Fatalf("burst sent %d messages, frame by frame %d, or in another order", len(gotB.msgs), len(gotF.msgs))
			}
			if !bytes.Equal(gotB.wire, gotF.wire) {
				t.Fatal("concatenated frame bytes differ")
			}
			if !reflect.DeepEqual(gotB.deliveries, gotF.deliveries) {
				t.Fatalf("deliveries differ:\nburst %v\nframe %v", gotB.deliveries, gotF.deliveries)
			}
			if gotB.received != gotF.received || gotB.good != gotF.good || gotB.bad != gotF.bad {
				t.Fatalf("burst counted %d messages in %d good / %d bad frames, frame by frame %d in %d / %d",
					gotB.received, gotB.good, gotB.bad, gotF.received, gotF.good, gotF.bad)
			}
			fp := func(p urb.Process) string { return p.(*urb.Quiescent).Fingerprint() }
			if fpB, fpF := fp(burst.Proc), fp(single.Proc); fpB != fpF {
				t.Fatalf("states differ:\nburst\n%s\nframe\n%s", fpB, fpF)
			}
			if !durable {
				return
			}
			_, walB, _ := stB.Mem.Load()
			_, walF, _ := stF.Mem.Load()
			if len(walB) == 0 || !reflect.DeepEqual(walB, walF) {
				t.Fatalf("WALs differ: %d records against %d", len(walB), len(walF))
			}
			rB, rF := burstProc(), burstProc()
			if _, err := Recover(rB, stB); err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(rF, stF); err != nil {
				t.Fatal(err)
			}
			if fpB, fpF := rB.Fingerprint(), rF.Fingerprint(); fpB != fpF {
				t.Fatalf("recovered states differ:\nburst\n%s\nframe\n%s", fpB, fpF)
			}
		})
	}
}

// TestLoopBurstEndsAtWriteAhead: with a store, OnFrames ends after the
// first frame that produced anything, so no reply or delivery waits for
// a later frame's write-ahead; frames that produced nothing before it
// are taken along. Without a store it takes the whole burst.
func TestLoopBurstEndsAtWriteAhead(t *testing.T) {
	x, y := wire.MsgID{Tag: label(1), Body: "x"}, wire.MsgID{Tag: label(2), Body: "y"}
	frames := [][]byte{garbage, garbage, wire.NewMsg(x).Encode(nil), wire.NewMsg(y).Encode(nil)}
	for _, tc := range []struct {
		name  string
		store bool
		calls [][2]int // good and bad frames taken by each call
	}{
		{"volatile", false, [][2]int{{2, 2}}},
		{"durable", true, [][2]int{{1, 2}, {1, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Core{Proc: burstProc()}
			if tc.store {
				c.Store = newRecStore()
			}
			l := NewLoop(c, LoopConfig{Batch: true}, 0)
			var calls [][2]int
			rest := append([][]byte(nil), frames...)
			for len(rest) > 0 {
				out, err := l.OnFrames(rest)
				if err != nil {
					t.Fatal(err)
				}
				calls = append(calls, [2]int{out.Good, out.Bad})
				rest = rest[out.Good+out.Bad:]
			}
			if !reflect.DeepEqual(calls, tc.calls) {
				t.Fatalf("calls took (good, bad) frames %v, want %v", calls, tc.calls)
			}
		})
	}
}

// TestLoopBurstStoreErrorExposesNothing: a store error anywhere in a
// burst's commit fails the whole call — nothing of it is delivered or
// sent, not even what the records written before the error cover. The
// burst is a bad frame and a batch frame that pins x and delivers it.
func TestLoopBurstStoreErrorExposesNothing(t *testing.T) {
	x := wire.MsgID{Tag: label(1), Body: "x"}
	batch := wire.NewMsg(x).Encode(nil)
	batch = wire.NewAckSnapshot(x, label(100), 1, []ident.Tag{label(1)}).Encode(batch)
	batch = wire.NewAckSnapshot(x, label(101), 1, []ident.Tag{label(1)}).Encode(batch)
	frames := [][]byte{garbage, batch}
	for fail := 1; fail <= 2; fail++ {
		st := newRecStore()
		st.failWAL = fail
		proc, tr := burstProc(), obs.New(0, 64, nil)
		proc.SetTracer(tr)
		l := NewLoop(Core{Proc: proc, Store: st}, LoopConfig{Batch: true, Tracer: tr}, 0)
		out, err := l.OnFrames(frames)
		if !errors.Is(err, errBoom) {
			t.Fatalf("record %d: err = %v, want the store's", fail, err)
		}
		if len(out.Deliveries)+len(out.Msgs)+len(out.Frames) != 0 {
			t.Fatalf("record %d: failed burst exposed %d deliveries, %d messages, %d frames",
				fail, len(out.Deliveries), len(out.Msgs), len(out.Frames))
		}
		if out.WALRecords != fail-1 || out.Good != 1 || out.Bad != 1 {
			t.Fatalf("record %d: %d records written before the error, %d good and %d bad frames taken",
				fail, out.WALRecords, out.Good, out.Bad)
		}
		// The trace holds what was exposed: nothing delivered.
		for _, e := range tr.Events() {
			if e.Kind == obs.EvDeliver {
				t.Fatalf("record %d: failed burst traced a DELIVER of %v", fail, e.Msg)
			}
		}
	}
}
