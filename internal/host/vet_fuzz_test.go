package host

import (
	"bytes"
	"errors"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// FuzzSnapshotContainer holds the joiner's gate on donor bytes (Vet:
// the container check, then the full snapshot verification) to its
// contract on arbitrary input: it never panics, every rejection is one
// of the named container, snapshot or staleness errors, and what it
// admits is a canonical container (the one EncodeSnapshotFile writes for
// its payload) of a snapshot that verifies at or above the floor.
// FuzzSnapshotDecode covers the payload decoder alone; this target adds
// the container framing and the incarnation floor the wire path runs.
func FuzzSnapshotContainer(f *testing.F) {
	q := quiescent(61)
	for i := uint64(0); i < 3; i++ {
		id := wire.MsgID{Tag: label(100 + i), Body: "history"}
		q.Receive(wire.NewMsg(id))
		q.Receive(wire.NewAckSnapshot(id, label(200+i), 1, []ident.Tag{label(1)}))
		q.Receive(wire.NewAckSnapshot(id, label(300+i), 1, []ident.Tag{label(1)}))
	}
	f.Add(containerOf(q), uint64(0))
	q.Rejoin()
	rejoined := containerOf(q)
	f.Add(rejoined, uint64(1))
	f.Add(rejoined, uint64(2)) // stale: below the floor
	f.Add(rejoined[:len(rejoined)-1], uint64(0))
	m := urb.NewMajority(3, ident.NewSource(xrand.New(62)), urb.Config{})
	m.Broadcast([]byte("majority"))
	f.Add(store.EncodeSnapshotFile(m.Snapshot()), uint64(0))
	h := urb.NewHeartbeatHost(ident.NewSource(xrand.New(63)), 50, 1, func() int64 { return 0 },
		urb.Config{DeltaAcks: true, DeltaBeats: true, CompactDelivered: true})
	h.Tick()
	f.Add(store.EncodeSnapshotFile(h.Snapshot()), uint64(0))
	f.Add(store.EncodeSnapshotFile(nil), uint64(0))
	f.Add([]byte("AURBSNAP"), uint64(0))

	named := []error{
		store.ErrSnapshotFile, ErrStaleSnapshot,
		urb.ErrSnapshotShort, urb.ErrSnapshotVersion, urb.ErrSnapshotKind,
		urb.ErrSnapshotMismatch, urb.ErrSnapshotCorrupt, urb.ErrSnapshotTrailing,
	}
	f.Fuzz(func(t *testing.T, container []byte, floor uint64) {
		err := Vet(container, floor)
		if err != nil {
			for _, e := range named {
				if errors.Is(err, e) {
					return
				}
			}
			t.Fatalf("Vet rejected with an unnamed error: %v", err)
		}
		payload, err := store.ParseSnapshotFile(container)
		if err != nil {
			t.Fatalf("Vet admitted a container ParseSnapshotFile rejects: %v", err)
		}
		if !bytes.Equal(store.EncodeSnapshotFile(payload), container) {
			t.Fatal("Vet admitted a container that is not the canonical framing of its payload")
		}
		info, err := urb.VerifySnapshot(payload)
		if err != nil || info.Incarnation < floor {
			t.Fatalf("Vet admitted a payload VerifySnapshot reports as (%+v, %v) at floor %d", info, err, floor)
		}
	})
}
