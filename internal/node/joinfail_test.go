package node_test

// Snapshot-transfer failure modes of the live join driver, driven
// through a scripted transport that plays the donor side byte-for-byte:
// torn frames and CRC-flipped chunks must read as loss at the frame
// decoder (the transfer resumes, never corrupts), and a donor that dies
// mid-transfer must be abandoned on the WithJoinTimeout back-off
// schedule, and a rejected container must be re-solicited at once with
// the WithJoinFloor the driver was given. The protocol's own table —
// chunk loss, refs of rejected containers never reassembled, the stall
// policy consulted once per donor — is internal/host's TestJoiner.

import (
	"context"
	"testing"
	"time"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/snapxfer"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// scriptTr is a transport whose far side is the test: every message the
// joiner sends is handed to onMsg synchronously, and the test pushes
// response frames into the receive channel.
type scriptTr struct {
	in    chan []byte
	onMsg func(m wire.Message)
}

func newScriptTr() *scriptTr { return &scriptTr{in: make(chan []byte, 1024)} }

func (s *scriptTr) Send(frame []byte) {
	rest := frame
	for len(rest) > 0 {
		m, next, err := wire.DecodePrefix(rest)
		if err != nil {
			return
		}
		rest = next
		if s.onMsg != nil {
			s.onMsg(m)
		}
	}
}
func (s *scriptTr) Receive() <-chan []byte { return s.in }
func (s *scriptTr) FrameBudget() int       { return 512 }
func (s *scriptTr) Close() error           { return nil }

func (s *scriptTr) push(ms ...wire.Message) {
	for _, m := range ms {
		s.in <- m.Encode(nil)
	}
}
func (s *scriptTr) pushRaw(frame []byte) { s.in <- frame }

// failDonor builds a Quiescent with enough delivered and pending state
// that its snapshot container spans several chunks at a small budget.
func failDonor(t *testing.T, seed uint64, msgs int) (*urb.Quiescent, []byte, []wire.MsgID) {
	t.Helper()
	jl := func(x uint64) ident.Tag { return ident.Tag{Hi: x, Lo: x} }
	det := viewFD{fd.Pair{Label: jl(1), Number: 2}}
	p := urb.NewQuiescent(det, ident.NewSource(xrand.New(seed)), urb.Config{})
	ids := make([]wire.MsgID, msgs)
	for i := range ids {
		ids[i] = wire.MsgID{Tag: jl(1000*seed + uint64(i)), Body: "history"}
		p.Receive(wire.NewMsg(ids[i]))
		p.Receive(wire.NewAckSnapshot(ids[i], jl(2000*seed+uint64(i)), 1, []ident.Tag{jl(1)}))
		s := p.Receive(wire.NewAckSnapshot(ids[i], jl(3000*seed+uint64(i)), 1, []ident.Tag{jl(1)}))
		if len(s.Deliveries) != 1 {
			t.Fatalf("donor %d did not deliver msg %d", seed, i)
		}
	}
	container := store.EncodeSnapshotFile(p.Snapshot())
	return p, container, ids
}

func joinProc(seed uint64) *urb.Quiescent {
	jl := func(x uint64) ident.Tag { return ident.Tag{Hi: x, Lo: x} }
	det := viewFD{fd.Pair{Label: jl(1), Number: 2}}
	return urb.NewQuiescent(det, ident.NewSource(xrand.New(seed)), urb.Config{})
}

// A CRC-flipped chunk and a torn frame are both loss: the transfer
// stalls until the joiner re-requests, then completes from the same
// donor with the same ref.
func TestJoinSurvivesCorruptAndTornChunks(t *testing.T) {
	_, container, ids := failDonor(t, 3, 6)
	donor := snapxfer.NewDonor(container, 128)
	if donor.Size() <= uint64(snapxfer.ChunkPayload(128)) {
		t.Fatalf("container %d bytes fits one chunk; test needs a multi-chunk transfer", donor.Size())
	}
	tr := newScriptTr()
	reqs := 0
	tr.onMsg = func(m wire.Message) {
		if m.Kind != wire.KindSnapReq {
			return
		}
		reqs++
		chunks := donor.Serve(m.Off, 2)
		switch reqs {
		case 1:
			// Flip one byte of each chunk body on the wire: the per-chunk
			// CRC must turn this into silence, not corruption.
			for _, c := range chunks {
				f := c.Encode(nil)
				f[len(f)-1] ^= 0x40
				tr.pushRaw(f)
			}
		case 2:
			// Torn frame: the link died mid-write.
			f := chunks[0].Encode(nil)
			tr.pushRaw(f[:len(f)/2])
		default:
			tr.push(chunks...)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p := joinProc(50)
	nd, err := node.Join(ctx, p, nil, tr, node.WithTickEvery(2*time.Millisecond))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer nd.Stop()
	if nd.JoinedBytes() != len(container) {
		t.Fatalf("JoinedBytes = %d, want %d", nd.JoinedBytes(), len(container))
	}
	if reqs < 3 {
		t.Fatalf("transfer completed in %d requests: the corrupted rounds were accepted", reqs)
	}
	for _, id := range ids {
		if !p.HasDelivered(id) {
			t.Fatalf("adopted state missing %v", id)
		}
	}
}

// A donor that goes silent mid-transfer is abandoned after the stall
// timeout; the fresh solicitation may be answered by any other peer,
// and the joiner finishes with that peer's state.
func TestJoinRetriesAnotherDonorAfterCrash(t *testing.T) {
	_, containerA, _ := failDonor(t, 4, 6)
	_, containerB, idsB := failDonor(t, 5, 4)
	donorA := snapxfer.NewDonor(containerA, 128)
	donorB := snapxfer.NewDonor(containerB, 128)
	tr := newScriptTr()
	solicits := 0
	tr.onMsg = func(m wire.Message) {
		if m.Kind != wire.KindSnapReq {
			return
		}
		switch {
		case m.Ref == 0:
			solicits++
			if solicits == 1 {
				// Donor A answers with a single chunk, then crashes:
				// every later request for its ref goes unanswered.
				tr.push(donorA.Serve(0, 1)...)
			} else {
				tr.push(donorB.Serve(0, 2)...)
			}
		case m.Ref == donorB.Ref():
			tr.push(donorB.Serve(m.Off, 2)...)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p := joinProc(51)
	nd, err := node.Join(ctx, p, nil, tr,
		node.WithTickEvery(2*time.Millisecond), node.WithJoinTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer nd.Stop()
	if solicits < 2 {
		t.Fatalf("joiner never abandoned the dead donor (%d solicitations)", solicits)
	}
	if nd.JoinedBytes() != len(containerB) {
		t.Fatalf("JoinedBytes = %d, want donor B's %d (donor A's was %d)",
			nd.JoinedBytes(), len(containerB), len(containerA))
	}
	for _, id := range idsB {
		if !p.HasDelivered(id) {
			t.Fatalf("adopted state missing donor B's %v", id)
		}
	}
}

// A fully transferred snapshot below the joiner's incarnation floor is
// rejected after verification — and its ref is remembered, so the
// joiner converges on the fresh donor even while the stale one keeps
// answering.
func TestJoinRejectsStaleDonorOverWire(t *testing.T) {
	_, staleContainer, _ := failDonor(t, 6, 4)
	freshProc, _, idsFresh := failDonor(t, 7, 4)
	// A process that has rejoined once carries incarnation 1: at or
	// above the joiner's floor.
	freshProc.Rejoin()
	freshContainer := store.EncodeSnapshotFile(freshProc.Snapshot())
	stale := snapxfer.NewDonor(staleContainer, 128)
	fresh := snapxfer.NewDonor(freshContainer, 128)
	tr := newScriptTr()
	staleSent := false
	tr.onMsg = func(m wire.Message) {
		if m.Kind != wire.KindSnapReq {
			return
		}
		switch {
		case m.Ref == stale.Ref():
			tr.push(stale.Serve(m.Off, 2)...)
		case m.Ref == fresh.Ref():
			tr.push(fresh.Serve(m.Off, 2)...)
		case !staleSent:
			staleSent = true
			tr.push(stale.Serve(0, 2)...)
		default:
			tr.push(fresh.Serve(0, 2)...)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p := joinProc(52)
	nd, err := node.Join(ctx, p, nil, tr,
		node.WithTickEvery(2*time.Millisecond), node.WithJoinFloor(1))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer nd.Stop()
	if !staleSent {
		t.Fatal("script never offered the stale snapshot")
	}
	if nd.JoinedBytes() != len(freshContainer) {
		t.Fatalf("JoinedBytes = %d, want fresh donor's %d (stale was %d)",
			nd.JoinedBytes(), len(freshContainer), len(staleContainer))
	}
	for _, id := range idsFresh {
		if !p.HasDelivered(id) {
			t.Fatalf("adopted state missing fresh donor's %v", id)
		}
	}
}
