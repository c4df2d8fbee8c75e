package node_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// queueTr is a transport whose inbox the test fills before the node
// starts; it records how many wire messages each sent frame carries.
type queueTr struct {
	in   chan []byte
	mu   sync.Mutex
	sent []int
}

func (q *queueTr) Send(frame []byte) {
	k := 0
	for rest := frame; len(rest) > 0; k++ {
		_, next, err := wire.DecodePrefix(rest)
		if err != nil {
			break
		}
		rest = next
	}
	q.mu.Lock()
	q.sent = append(q.sent, k)
	q.mu.Unlock()
}
func (q *queueTr) Receive() <-chan []byte { return q.in }
func (q *queueTr) FrameBudget() int       { return 0 }
func (q *queueTr) Close() error           { return nil }

// TestNodeBurst: the node takes the frames already waiting in its inbox
// in bursts of at most 64. 150 frames wait — one in fifteen undecodable,
// the rest a fresh MSG each, which a solo Majority answers with one ACK
// — and the inbox then closes, which ends the node once the last burst
// is done. Without a store a burst is one host.Loop call, whose replies
// leave in one send (the transport is unbudgeted). With one, the loop
// takes a burst in one call per replying frame, so each ACK leaves
// alone, before the next frame's write-ahead. Either way FrameStats
// counts every frame of a burst, its bad ones as bad.
func TestNodeBurst(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []node.Option
		sent []int // ACKs per sent frame
	}{
		// Bursts are frames 0–63, 64–127 and 128–149, holding 4, 5 and
		// 1 bad frames.
		{"volatile", nil, []int{60, 59, 21}},
		{"durable", []node.Option{node.WithStore(store.NewMem())}, slices.Repeat([]int{1}, 140)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const frames = 150
			tr := &queueTr{in: make(chan []byte, frames)}
			for i := range frames {
				if i%15 == 7 {
					tr.in <- []byte{0xff, 0xff, 0xff, 0xff}
					continue
				}
				id := wire.MsgID{Tag: ident.Tag{Hi: uint64(i) + 1, Lo: 1}, Body: "burst"}
				tr.in <- wire.NewMsg(id).Encode(nil)
			}
			close(tr.in)
			opts := append([]node.Option{node.WithTickEvery(time.Hour)}, tc.opts...)
			nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(3)), urb.Config{}), tr, opts...)
			ch := nd.Deliveries()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := nd.Start(ctx); err != nil {
				t.Fatal(err)
			}
			for range ch { // closed once the node has stopped
			}
			if ctx.Err() != nil {
				t.Fatal("the node did not stop when its inbox closed")
			}

			tr.mu.Lock()
			sent := append([]int(nil), tr.sent...)
			tr.mu.Unlock()
			if !slices.Equal(sent, tc.sent) {
				t.Fatalf("ACKs per sent frame %v, want %v", sent, tc.sent)
			}
			fs, fr, fb := nd.FrameStats()
			ms, mr := nd.MessageStats()
			if fs != uint64(len(tc.sent)) || fr != 140 || fb != 10 || ms != 140 || mr != 140 {
				t.Fatalf("frames sent/received/bad %d/%d/%d, messages sent/received %d/%d; want %d/140/10 and 140/140",
					fs, fr, fb, ms, mr, len(tc.sent))
			}
		})
	}
}
