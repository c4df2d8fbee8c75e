package transport_test

import (
	"bytes"
	"math/bits"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/transport"
)

// TestConformanceFramesNeverReused pins the half of the Receive contract
// that zero-copy decoding rests on: a decoded message's body borrows the
// received frame (wire.DecodePrefix), so a transport must never reuse a
// frame it handed out. Per transport: the first frame an endpoint
// received keeps its bytes after a second one arrives (UDP reads every
// datagram through one socket buffer), and the frame the sender passed
// to Send is never written either — not even by a link that flips bits,
// which must flip a copy.
func TestConformanceFramesNeverReused(t *testing.T) {
	reliable := channel.Reliable{D: channel.FixedDelay(0)}
	flipAll := channel.BitFlip{P: 1, Check: func(orig, mut []byte) bool { return true }, Then: reliable}
	for _, tc := range []struct {
		name string
		make func(t *testing.T, n int) ([]transport.Transport, func())
		// flips: every delivered copy differs from the sent frame in
		// exactly one bit.
		flips bool
	}{
		{name: "mesh", make: meshGroup(reliable)},
		{name: "udp", make: udpGroup()},
		{name: "chaos-udp", make: chaosOver(udpGroup(), reliable)},
		{name: "mesh-bitflip", make: meshGroup(flipAll), flips: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs, cleanup := tc.make(t, 2)
			defer cleanup()
			a, _ := testFrame(1)
			b, _ := testFrame(2)
			sentA := bytes.Clone(a)

			first := receiveNext(t, trs[1], nil, func() { trs[0].Send(a) })
			kept := bytes.Clone(first)
			receiveNext(t, trs[1], kept, func() { trs[0].Send(b) })

			if !bytes.Equal(first, kept) {
				t.Errorf("first frame changed after a second arrived:\n got %x\nwant %x", first, kept)
			}
			if !bytes.Equal(a, sentA) {
				t.Errorf("the sender's frame was written: %x, sent %x", a, sentA)
			}
			if diff := bitDiff(kept, sentA); tc.flips && diff != 1 || !tc.flips && diff != 0 {
				t.Errorf("received frame differs from the sent one in %d bits", diff)
			}
		})
	}
}

// receiveNext calls send every few milliseconds until tr hands out a
// frame whose bytes are not skip's (a late copy of an earlier frame),
// and returns it.
func receiveNext(t *testing.T, tr transport.Transport, skip []byte, send func()) []byte {
	t.Helper()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	send()
	for {
		select {
		case frame := <-tr.Receive():
			if !bytes.Equal(frame, skip) {
				return frame
			}
		case <-tick.C:
			send()
		case <-deadline:
			t.Fatal("no frame arrived")
			return nil
		}
	}
}

// bitDiff counts the bits in which two equally long frames differ; a
// length mismatch counts as a large difference.
func bitDiff(x, y []byte) int {
	if len(x) != len(y) {
		return 1 << 20
	}
	n := 0
	for i := range x {
		n += bits.OnesCount8(x[i] ^ y[i])
	}
	return n
}
