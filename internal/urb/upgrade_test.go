package urb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Upgrade compatibility: state written by the build before retirement
// freed claim state (DESIGN.md §2, D3) still restores. The fixtures in
// testdata/upgrade were recorded with that build, from slot 1 of the
// quiescent_tuned golden run (goldenLifecycle under goldenTuned, the
// oracle in its last phase):
//
//   - quiescent_retired.snap is slot 1's snapshot at the end of the
//     schedule: six messages, all delivered and retired, and an ALL_ACK
//     section that still lists all six;
//   - store/ is a FileStore holding that snapshot as its checkpoint plus
//     the WAL of one more broadcast ("epsilon") slot 1 then made,
//     delivered and retired.

// upgradeDetector is the oracle of the golden run's last phase.
func upgradeDetector() fd.Static {
	l1, l2 := ident.Tag{Hi: 1, Lo: 0xb}, ident.Tag{Hi: 2, Lo: 0xb}
	return fd.Static{
		Theta: fd.Normalize(fd.View{{Label: l1, Number: 2}, {Label: l2, Number: 2}}),
		Star:  fd.Normalize(fd.View{{Label: l1, Number: 3}, {Label: l2, Number: 3}}),
	}
}

// newUpgradeProc is a fresh process with slot 1's parameters.
func newUpgradeProc() *Quiescent {
	return NewQuiescent(upgradeDetector(), ident.NewSource(xrand.New(1000+7919)), goldenTuned)
}

func TestRestoreOlderSnapshotFreesRetiredClaims(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "upgrade", "quiescent_retired.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is what it claims: decoded as written, its ALL_ACK
	// section holds claim state for settled messages only.
	raw := newUpgradeProc()
	if err := raw.restoreState(data); err != nil {
		t.Fatal(err)
	}
	if len(raw.ackOrder) != 6 {
		t.Fatalf("fixture lists %d ALL_ACK entries, want 6", len(raw.ackOrder))
	}
	for _, rec := range raw.ackOrder {
		if !rec.delivered || rec.slot >= 0 {
			t.Fatalf("fixture entry %v: delivered %v, slot %d; want retired", rec.id, rec.delivered, rec.slot)
		}
	}

	p := newUpgradeProc()
	if err := p.Restore(data); err != nil {
		t.Fatalf("Restore of an older snapshot: %v", err)
	}
	checkDirtyIndex(t, p, restored)
	checkProcRecords(t, p)
	if st := p.Stats(); st.Delivered != 6 || st.Retired != 6 || st.MsgSet != 0 || st.AckEntries != 0 || st.AckLabelStorage != 0 {
		t.Fatalf("restored %+v, want 6 delivered and retired messages without claim state", st)
	}
	if _, err := VerifySnapshot(data); err != nil {
		t.Fatalf("VerifySnapshot of the older snapshot: %v", err)
	}
	// Re-encoded, the state is smaller and restores to itself.
	snap := p.Snapshot()
	if len(snap) >= len(data) {
		t.Fatalf("re-encoded snapshot is %d bytes, the older one %d", len(snap), len(data))
	}
	again := newUpgradeProc()
	if err := again.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != p.Fingerprint() || !bytes.Equal(again.Snapshot(), snap) {
		t.Fatal("the settled state does not round-trip")
	}
	if s := p.Tick(); len(s.Broadcasts)+len(s.Deliveries) != 0 {
		t.Fatalf("a quiescent restored process sent %+v", s)
	}
	checkDirtyIndex(t, p, ticked)
}

// TestRecoverOlderStore: a FileStore written by the older build recovers
// the way host.Recover does it — Restore the checkpoint, replay the WAL,
// Rejoin, checkpoint back — and the recovered process still retires.
func TestRecoverOlderStore(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.bin", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "upgrade", "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.OpenFileNoSync(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, wal, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	p := newUpgradeProc()
	if err := p.Restore(snap); err != nil {
		t.Fatalf("recover snapshot: %v", err)
	}
	for i, raw := range wal {
		ev, err := DecodeWALRecord(raw)
		if err == nil {
			err = p.ApplyWAL(ev)
		}
		if err != nil {
			t.Fatalf("recover wal record %d/%d: %v", i+1, len(wal), err)
		}
	}
	p.Rejoin()
	if err := st.SaveSnapshot(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkProcRecords(t, p)
	// The WAL's delivery put "epsilon" back into MSG_i, without claims:
	// the recovered process retransmits it until the guard passes again.
	eps := p.sortedRecs(func(r *msgRec) bool { return r.id.Body == "epsilon" })
	if len(eps) != 1 || !eps[0].delivered || eps[0].slot < 0 || eps[0].st != nil {
		t.Fatalf("epsilon after recovery: %+v", eps)
	}
	if st := p.Stats(); st.Delivered != 7 || st.MsgSet != 1 || st.AckEntries != 0 {
		t.Fatalf("recovered %+v, want 7 delivered, epsilon in MSG_i, no claim state", st)
	}
	labels := []ident.Tag{{Hi: 1, Lo: 0xb}, {Hi: 2, Lo: 0xb}}
	for k := uint64(0); k < 3; k++ {
		p.Receive(wire.NewAckSnapshot(eps[0].id, ident.Tag{Hi: 500 + k, Lo: 1}, 1, labels))
	}
	p.Tick()
	checkDirtyIndex(t, p, ticked)
	// Retired counts the checkpoint's six plus epsilon: its first
	// retirement, after the checkpoint, was never logged.
	if st := p.Stats(); st.MsgSet != 0 || st.Retired != 7 || st.AckEntries != 0 {
		t.Fatalf("after the ACKs and a Tick: %+v, want epsilon retired again and freed", st)
	}
}
