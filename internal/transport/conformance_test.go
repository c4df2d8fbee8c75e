package transport_test

// The transport conformance suite: every Transport implementation must
// deliver frames to all endpoints (under loss, given retransmission),
// honour the Close contract, leak no goroutines, and carry frames
// byte-for-byte (wire codec canonicality). It runs against Mesh (lossy
// and reliable), UDP over loopback, and Chaos wrapping each of them.

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/transport"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// fixture builds a connected group of n transports plus a cleanup.
type fixture struct {
	name string
	make func(t *testing.T, n int) ([]transport.Transport, func())
}

func meshGroup(link channel.LinkModel) func(t *testing.T, n int) ([]transport.Transport, func()) {
	return func(t *testing.T, n int) ([]transport.Transport, func()) {
		t.Helper()
		m := transport.NewMesh(transport.MeshConfig{
			N: n, Link: link, Unit: 100 * time.Microsecond, Seed: 11,
		})
		trs := make([]transport.Transport, n)
		for i := range trs {
			trs[i] = m.Endpoint(i)
		}
		return trs, func() { m.Close() }
	}
}

func udpGroup() func(t *testing.T, n int) ([]transport.Transport, func()) {
	return func(t *testing.T, n int) ([]transport.Transport, func()) {
		t.Helper()
		group, err := transport.UDPGroup(n, 0)
		if err != nil {
			t.Fatalf("udp group: %v", err)
		}
		trs := make([]transport.Transport, n)
		for i := range trs {
			trs[i] = group[i]
		}
		return trs, func() {
			for _, u := range group {
				u.Close()
			}
		}
	}
}

// chaosOver wraps every member of an inner fixture in its own Chaos
// transport (distinct seeds decorrelate the senders).
func chaosOver(inner func(t *testing.T, n int) ([]transport.Transport, func()), model channel.LinkModel) func(t *testing.T, n int) ([]transport.Transport, func()) {
	return func(t *testing.T, n int) ([]transport.Transport, func()) {
		t.Helper()
		trs, cleanup := inner(t, n)
		out := make([]transport.Transport, n)
		for i := range trs {
			out[i] = transport.NewChaos(trs[i], transport.ChaosConfig{
				Model: model,
				Unit:  100 * time.Microsecond,
				Seed:  uint64(100 + i),
			})
		}
		return out, cleanup
	}
}

func fixtures() []fixture {
	lossy := channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 0, Max: 3}}
	reliable := channel.Reliable{D: channel.FixedDelay(0)}
	return []fixture{
		{name: "mesh-reliable", make: meshGroup(reliable)},
		{name: "mesh-lossy", make: meshGroup(lossy)},
		{name: "udp", make: udpGroup()},
		{name: "chaos-mesh", make: chaosOver(meshGroup(reliable), lossy)},
		{name: "chaos-udp", make: chaosOver(udpGroup(), lossy)},
	}
}

// testFrame returns the canonical encoding of a distinctive message,
// with arbitrary (non-UTF-8, zero-byte-containing) payload bytes.
func testFrame(seq uint64) ([]byte, wire.Message) {
	m := wire.Message{
		Kind: wire.KindMsg,
		Body: []byte{0xff, 0x00, 0xfe, byte(seq), byte(seq >> 8)},
		Tag:  ident.Tag{Hi: 0xdead, Lo: seq + 1},
	}
	return m.Encode(nil), m
}

// TestConformanceBroadcastReachesAll: a frame retransmitted forever
// reaches every endpoint, including the sender itself — the fair lossy
// channel contract every algorithm in this repository is built on.
func TestConformanceBroadcastReachesAll(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			const n = 3
			trs, cleanup := fx.make(t, n)
			defer cleanup()

			frame, want := testFrame(7)
			got := make(chan int, n)
			for i := 0; i < n; i++ {
				i := i
				go func() {
					for raw := range trs[i].Receive() {
						m, err := wire.Decode(raw)
						if err != nil {
							t.Errorf("endpoint %d: undecodable frame: %v", i, err)
							return
						}
						if m.Equal(want) {
							got <- i
							return
						}
					}
				}()
			}

			// Retransmit until everyone has it (Task-1 style).
			deadline := time.After(10 * time.Second)
			seen := make(map[int]bool)
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for len(seen) < n {
				select {
				case i := <-got:
					seen[i] = true
				case <-tick.C:
					trs[0].Send(frame)
				case <-deadline:
					t.Fatalf("only %d/%d endpoints received the frame", len(seen), n)
				}
			}
		})
	}
}

// TestConformanceCloseSemantics: Close is idempotent, closes the
// Receive channel, and turns Send into a no-op — on an idle transport,
// and on one with frames in flight in both directions, where whatever
// sits on a delay line (the mesh's towards the closed endpoint, the
// closed Chaos wrapper's own) at that moment is dropped, not delivered
// late. That nothing at all is handed over once Close has returned is
// pinned where it can be observed, on the line itself and on a counting
// inner transport (TestDelayLineClose, TestChaosCloseForwardsNothingAfter).
func TestConformanceCloseSemantics(t *testing.T) {
	cases := []struct {
		name string
		// busy keeps every endpoint sending while trs[0] closes.
		busy bool
	}{
		{name: "idle"},
		{name: "frames in flight", busy: true},
	}
	for _, fx := range fixtures() {
		for _, tc := range cases {
			fx, tc := fx, tc
			t.Run(fx.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				trs, cleanup := fx.make(t, 2)
				defer cleanup()

				frame, _ := testFrame(1)
				if tc.busy {
					stop := make(chan struct{})
					var wg sync.WaitGroup
					defer func() { close(stop); wg.Wait() }()
					for _, tr := range trs {
						tr := tr
						wg.Add(1)
						go func() {
							defer wg.Done()
							for {
								select {
								case <-stop:
									return
								default:
									tr.Send(frame) // must not panic, before or after the close
									time.Sleep(50 * time.Microsecond)
								}
							}
						}()
					}
					// Let traffic (and delayed copies) build up, then drain
					// the peer so that a full inbox is not what stops it.
					time.Sleep(5 * time.Millisecond)
					go func() {
						for range trs[1].Receive() {
						}
					}()
				}
				if err := trs[0].Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if err := trs[0].Close(); err != nil {
					t.Fatalf("second close: %v", err)
				}
				trs[0].Send(frame) // must not panic

				// The receive channel must close (buffered frames may drain
				// first).
				deadline := time.After(5 * time.Second)
				for {
					select {
					case _, ok := <-trs[0].Receive():
						if !ok {
							return
						}
					case <-deadline:
						t.Fatal("receive channel did not close")
					}
				}
			})
		}
	}
}

// TestConformanceNoGoroutineLeak: building and closing a group leaves no
// goroutines behind.
func TestConformanceNoGoroutineLeak(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := 0; round < 3; round++ {
				trs, cleanup := fx.make(t, 3)
				frame, _ := testFrame(uint64(round))
				for _, tr := range trs {
					tr.Send(frame)
				}
				for _, tr := range trs {
					tr.Close()
				}
				cleanup()
			}
			// Timers and readers need a moment to unwind.
			var after int
			for i := 0; i < 50; i++ {
				time.Sleep(10 * time.Millisecond)
				after = runtime.NumGoroutine()
				if after <= before {
					return
				}
			}
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		})
	}
}

// TestConformanceFrameBudget: every transport reports a stable positive
// frame budget (these fixtures all bottom out in UDP-sized budgets), a
// frame of exactly budget size is carried intact, and Chaos reports its
// inner transport's budget unchanged.
func TestConformanceFrameBudget(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			trs, cleanup := fx.make(t, 2)
			defer cleanup()

			budget := trs[0].FrameBudget()
			if budget <= 0 {
				t.Fatalf("FrameBudget() = %d, want positive for this fixture", budget)
			}
			if budget != trs[1].FrameBudget() {
				t.Fatal("endpoints of one group disagree on the frame budget")
			}
			if again := trs[0].FrameBudget(); again != budget {
				t.Fatalf("FrameBudget unstable: %d then %d", budget, again)
			}

			// A frame of exactly budget bytes crosses the transport —
			// except over real sockets on Darwin, whose default
			// net.inet.udp.maxdgram (9216) rejects budget-sized
			// datagrams with EMSGSIZE; there a sub-limit size keeps the
			// test meaningful locally while Linux CI covers the full
			// budget.
			size := budget
			if runtime.GOOS == "darwin" && strings.Contains(fx.name, "udp") && size > 8192 {
				size = 8192
			}
			frame := make([]byte, size)
			for i := range frame {
				frame[i] = byte(i * 31)
			}
			deadline := time.After(10 * time.Second)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case raw, ok := <-trs[1].Receive():
					if !ok {
						t.Fatal("receive channel closed")
					}
					if len(raw) != size {
						continue // stray frame from another test round
					}
					for i := range raw {
						if raw[i] != frame[i] {
							t.Fatalf("budget-sized frame corrupted at byte %d", i)
						}
					}
					return
				case <-tick.C:
					trs[0].Send(frame)
				case <-deadline:
					t.Fatalf("budget-sized frame (%dB) never arrived", size)
				}
			}
		})
	}
}

// TestConformanceBatchFrames: a batch frame — several wire messages
// concatenated within the frame budget — crosses every transport as one
// unit and splits back into exactly the packed messages. This is the
// transport-level half of the node runtime's batched retransmission
// pipeline, exercised here in both modes: single-message frames
// (unbatched) are covered by TestConformanceFrameCanonicality; this
// test covers multi-message frames (batched).
func TestConformanceBatchFrames(t *testing.T) {
	rng := xrand.New(123)
	tags := ident.NewSource(rng)
	want := []wire.Message{
		wire.NewMsg(wire.NewMsgID(tags.Next(), []byte("first"))),
		wire.NewLabeledAck(wire.NewMsgID(tags.Next(), []byte{0x00, 0xfe, 0xff}),
			tags.Next(), []ident.Tag{tags.Next(), tags.Next(), tags.Next()}),
		wire.NewBeat(tags.Next()),
		wire.NewMsg(wire.NewMsgID(tags.Next(), nil)),
	}
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			trs, cleanup := fx.make(t, 2)
			defer cleanup()

			budget := trs[0].FrameBudget()
			frames := wire.EncodeBatch(want, budget)
			if len(frames) != 1 {
				t.Fatalf("test batch should fit one frame of budget %d, got %d frames", budget, len(frames))
			}
			frame := frames[0]

			deadline := time.After(10 * time.Second)
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case raw, ok := <-trs[1].Receive():
					if !ok {
						t.Fatal("receive channel closed")
					}
					got, err := wire.DecodeBatch(raw)
					if err != nil {
						t.Fatalf("batch frame corrupt on the wire: %v", err)
					}
					if len(got) != len(want) {
						t.Fatalf("batch split into %d messages, want %d", len(got), len(want))
					}
					for i := range want {
						if !got[i].Equal(want[i]) {
							t.Fatalf("batch member %d mangled: got %s want %s", i, got[i], want[i])
						}
					}
					return
				case <-tick.C:
					trs[0].Send(frame)
				case <-deadline:
					t.Fatal("batch frame never arrived")
				}
			}
		})
	}
}

// TestConformanceFrameCanonicality: frames cross every transport
// byte-for-byte — whatever arrives decodes (via the canonical codec) to
// exactly the message that was sent, for MSG, ACK-with-labels and BEAT
// kinds, including empty and non-UTF-8 bodies.
func TestConformanceFrameCanonicality(t *testing.T) {
	rng := xrand.New(99)
	tags := ident.NewSource(rng)
	msgs := []wire.Message{
		wire.NewMsg(wire.NewMsgID(tags.Next(), []byte{0x80, 0x81, 0x00})),
		wire.NewMsg(wire.NewMsgID(tags.Next(), nil)), // empty body
		wire.NewLabeledAck(wire.NewMsgID(tags.Next(), []byte("plain")),
			tags.Next(), []ident.Tag{tags.Next(), tags.Next()}),
		wire.NewBeat(tags.Next()),
	}
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			trs, cleanup := fx.make(t, 2)
			defer cleanup()

			for wi, want := range msgs {
				frame := want.Encode(nil)
				deadline := time.After(10 * time.Second)
				tick := time.NewTicker(2 * time.Millisecond)
				found := false
				for !found {
					select {
					case raw, ok := <-trs[1].Receive():
						if !ok {
							t.Fatalf("msg %d: receive channel closed", wi)
						}
						m, err := wire.Decode(raw)
						if err != nil {
							t.Fatalf("msg %d: corrupt frame on the wire: %v", wi, err)
						}
						if m.Equal(want) {
							found = true
						}
					case <-tick.C:
						trs[0].Send(frame)
					case <-deadline:
						t.Fatalf("msg %d (%s) never arrived", wi, want)
					}
				}
				tick.Stop()
			}
		})
	}
}
