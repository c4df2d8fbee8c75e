package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// both runs a subtest against a fresh Mem and a fresh File store.
func both(t *testing.T, name string, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run(name+"/mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run(name+"/file", func(t *testing.T) {
		s, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fn(t, s)
	})
}

func TestStoreContract(t *testing.T) {
	both(t, "empty-load", func(t *testing.T, s Store) {
		snap, wal, err := s.Load()
		if err != nil || snap != nil || len(wal) != 0 {
			t.Fatalf("empty store load = (%v, %v, %v)", snap, wal, err)
		}
	})

	both(t, "wal-append-order", func(t *testing.T, s Store) {
		for i := 0; i < 10; i++ {
			if err := s.AppendWAL([]byte{byte(i), 0xaa}); err != nil {
				t.Fatal(err)
			}
		}
		snap, wal, err := s.Load()
		if err != nil || snap != nil {
			t.Fatalf("load = (%v, _, %v)", snap, err)
		}
		if len(wal) != 10 {
			t.Fatalf("wal = %d records, want 10", len(wal))
		}
		for i, r := range wal {
			if !bytes.Equal(r, []byte{byte(i), 0xaa}) {
				t.Fatalf("record %d = %x", i, r)
			}
		}
		st := s.Stats()
		if st.WALRecords != 10 || st.WALBytes != 20 {
			t.Fatalf("stats = %+v", st)
		}
	})

	both(t, "snapshot-compacts", func(t *testing.T, s Store) {
		s.AppendWAL([]byte("pre-1"))
		s.AppendWAL([]byte("pre-2"))
		if err := s.SaveSnapshot([]byte("snap-A")); err != nil {
			t.Fatal(err)
		}
		s.AppendWAL([]byte("post"))
		snap, wal, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, []byte("snap-A")) {
			t.Fatalf("snap = %q", snap)
		}
		if len(wal) != 1 || !bytes.Equal(wal[0], []byte("post")) {
			t.Fatalf("wal = %q, want only the post-snapshot record", wal)
		}
		// A second snapshot replaces the first and drops the record.
		if err := s.SaveSnapshot([]byte("snap-B")); err != nil {
			t.Fatal(err)
		}
		snap, wal, _ = s.Load()
		if !bytes.Equal(snap, []byte("snap-B")) || len(wal) != 0 {
			t.Fatalf("after recompaction: snap=%q wal=%d", snap, len(wal))
		}
		st := s.Stats()
		if st.SnapshotSaves != 2 || st.SnapshotBytes != uint64(len("snap-B")) {
			t.Fatalf("stats = %+v", st)
		}
	})

	both(t, "empty-records-and-large", func(t *testing.T, s Store) {
		big := bytes.Repeat([]byte{0x5c}, 64<<10)
		for _, rec := range [][]byte{{}, big, {1}} {
			if err := s.AppendWAL(rec); err != nil {
				t.Fatal(err)
			}
		}
		_, wal, err := s.Load()
		if err != nil || len(wal) != 3 {
			t.Fatalf("load: %v, %d records", err, len(wal))
		}
		if !bytes.Equal(wal[1], big) {
			t.Fatal("large record garbled")
		}
	})

	both(t, "closed-rejects", func(t *testing.T, s Store) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendWAL([]byte("x")); err != ErrClosed {
			t.Fatalf("append on closed = %v", err)
		}
		if err := s.SaveSnapshot([]byte("x")); err != ErrClosed {
			t.Fatalf("snapshot on closed = %v", err)
		}
		if _, _, err := s.Load(); err != ErrClosed {
			t.Fatalf("load on closed = %v", err)
		}
	})
}

// TestFileStoreSurvivesReopen: a new File on the same directory sees
// everything the old one persisted — the actual crash-restart path.
func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SaveSnapshot([]byte("snap"))
	s.AppendWAL([]byte("r1"))
	s.AppendWAL([]byte("r2"))
	s.Close() // the "crash" (Close only closes the handle; no flush logic pending)

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, wal, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, []byte("snap")) || len(wal) != 2 {
		t.Fatalf("reopened store lost state: snap=%q wal=%d", snap, len(wal))
	}
	// Appends after reopen extend the same log.
	s2.AppendWAL([]byte("r3"))
	_, wal, _ = s2.Load()
	if len(wal) != 3 || !bytes.Equal(wal[2], []byte("r3")) {
		t.Fatalf("append after reopen: wal=%q", wal)
	}
}

// TestFileLoadAfterOpen: the first Load returns what the open read, plus
// anything appended since, and nothing a snapshot compacted away; a
// later Load reads the log again.
func TestFileLoadAfterOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendWAL([]byte("r1"))
	s.AppendWAL([]byte("r2"))
	s.Close()

	s, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL([]byte("r3")); err != nil {
		t.Fatal(err)
	}
	_, wal, err := s.Load()
	if err != nil || fmt.Sprintf("%q", wal) != `["r1" "r2" "r3"]` {
		t.Fatalf("first Load after an append: wal=%q err=%v", wal, err)
	}
	if st := s.Stats(); st.WALRecords != 3 || st.WALBytes != 6 {
		t.Fatalf("stats after Load: %+v", st)
	}
	if _, wal, _ = s.Load(); len(wal) != 3 {
		t.Fatalf("second Load: wal=%q", wal)
	}
	s.Close()

	s, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveSnapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	snap, wal, err := s.Load()
	if err != nil || string(snap) != "snap" || len(wal) != 0 {
		t.Fatalf("first Load after a snapshot: snap=%q wal=%q err=%v", snap, wal, err)
	}
}

// tornCase truncates or corrupts the WAL file in a specific way and says
// how many records must survive replay.
type tornCase struct {
	name    string
	mangle  func(t *testing.T, path string)
	survive int
}

// TestFileWALTornTail: every flavour of torn tail — header cut short,
// body cut short, checksum garbled, absurd length — loses exactly the
// final record, and the file is truncated so subsequent appends work.
func TestFileWALTornTail(t *testing.T) {
	mkRecords := func(dir string) *File {
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.AppendWAL([]byte(fmt.Sprintf("record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		return s
	}
	cases := []tornCase{
		{"header-cut", func(t *testing.T, p string) { chop(t, p, 3) }, 4},
		{"body-cut", func(t *testing.T, p string) { chop(t, p, 12) }, 4},
		{"one-byte-left", func(t *testing.T, p string) { chopTo(t, p, 1) }, 0},
		{"crc-garbled", func(t *testing.T, p string) { flipLastPayloadByte(t, p) }, 4},
		{"length-absurd", func(t *testing.T, p string) { garbleLastLength(t, p) }, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mkRecords(dir)
			tc.mangle(t, filepath.Join(dir, walFileName))

			s, err := OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			_, wal, err := s.Load()
			if err != nil {
				t.Fatalf("torn tail must replay, got %v", err)
			}
			if len(wal) != tc.survive {
				t.Fatalf("%d records survived, want %d", len(wal), tc.survive)
			}
			for i, r := range wal {
				if want := fmt.Sprintf("record-%d", i); string(r) != want {
					t.Fatalf("record %d = %q, want %q", i, r, want)
				}
			}
			// The tear is gone: appending and reloading yields a clean log.
			if err := s.AppendWAL([]byte("after-tear")); err != nil {
				t.Fatal(err)
			}
			_, wal, err = s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(wal) != tc.survive+1 || string(wal[len(wal)-1]) != "after-tear" {
				t.Fatalf("append after tear: %q", wal)
			}
		})
	}
}

// TestMemTornTail: the in-memory fault injection drops exactly the final
// record, once.
func TestMemTornTail(t *testing.T) {
	m := NewMem()
	m.AppendWAL([]byte("a"))
	m.AppendWAL([]byte("b"))
	m.TearTail()
	_, wal, err := m.Load()
	if err != nil || len(wal) != 1 || string(wal[0]) != "a" {
		t.Fatalf("torn load = %q, %v", wal, err)
	}
	_, wal, _ = m.Load()
	if len(wal) != 1 {
		t.Fatal("tear applied twice")
	}
}

// TestFileSnapshotCorruptionIsLoud: unlike a torn WAL tail, a damaged
// snapshot file fails Load — restarting amnesiac when durable state
// existed would silently break uniformity.
func TestFileSnapshotCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SaveSnapshot([]byte("precious"))
	s.Close()

	path := filepath.Join(dir, snapFileName)
	data, _ := os.ReadFile(path)
	for _, mangle := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)-2] ^= 0xff; return b },         // payload/crc flip
		func(b []byte) []byte { return b[:len(b)-3] },                   // truncated
		func(b []byte) []byte { b[0] = 'X'; return b },                  // bad magic
		func(b []byte) []byte { b[len(snapMagic)] = 99; return b },      // bad version
		func(b []byte) []byte { b[len(snapMagic)+2] ^= 0x01; return b }, // bad length
	} {
		bad := mangle(append([]byte(nil), data...))
		os.WriteFile(path, bad, 0o644)
		s2, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s2.Load(); err == nil {
			t.Fatalf("corrupt snapshot loaded silently (mangled to %d bytes)", len(bad))
		}
		s2.Close()
	}
}

// TestFileSnapshotTempLeftover: a temp file abandoned by a crash between
// write and rename is ignored; the previous snapshot remains in force.
func TestFileSnapshotTempLeftover(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SaveSnapshot([]byte("good"))
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, snapFileName+".tmp-666"), []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, _, err := s2.Load()
	if err != nil || !bytes.Equal(snap, []byte("good")) {
		t.Fatalf("leftover temp file perturbed load: %q, %v", snap, err)
	}
}

// --- file mangling helpers -------------------------------------------------

func chop(t *testing.T, path string, bytesOff int) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	chopTo(t, path, info.Size()-int64(bytesOff))
}

func chopTo(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// flipLastPayloadByte flips the final byte of the file — the last byte of
// the last record's payload — so its checksum fails.
func flipLastPayloadByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// garbleLastLength rewrites the last record's length field to an absurd
// value (simulating a torn header whose bytes happen to parse).
func garbleLastLength(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last frame: walk from the start.
	off := 0
	last := -1
	for off+walFrameLen <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if off+walFrameLen+n > len(data) {
			break
		}
		last = off
		off += walFrameLen + n
	}
	if last < 0 {
		t.Fatal("no frame found")
	}
	binary.BigEndian.PutUint32(data[last:last+4], maxWALRecord+7)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALFrameChecksum pins the frame layout (a regression guard for the
// on-disk format: changing it silently would strand existing stores).
func TestWALFrameChecksum(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("layout-pin")
	s.AppendWAL(payload)
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != walFrameLen+len(payload) {
		t.Fatalf("frame size %d", len(data))
	}
	if binary.BigEndian.Uint32(data[0:4]) != uint32(len(payload)) {
		t.Fatal("length field moved")
	}
	if binary.BigEndian.Uint32(data[4:8]) != crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) {
		t.Fatal("checksum field moved or algorithm changed")
	}
	if !bytes.Equal(data[walFrameLen:], payload) {
		t.Fatal("payload moved")
	}
}

// flipMutator is a deterministic SnapshotMutator XORing one byte.
type flipMutator struct{ off int }

func (f flipMutator) MutateSnapshot(snap []byte) []byte {
	if len(snap) > 0 {
		snap[f.off%len(snap)] ^= 0xff
	}
	return snap
}

// TestMemSnapshotMutator: the injector rewrites what Load hands out but
// never the stored bytes, and uninstalls cleanly.
func TestMemSnapshotMutator(t *testing.T) {
	m := NewMem()
	if err := m.SaveSnapshot([]byte("pristine")); err != nil {
		t.Fatal(err)
	}
	m.SetSnapshotMutator(flipMutator{off: 0})
	snap, _, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) == "pristine" {
		t.Fatal("mutator not applied")
	}
	m.SetSnapshotMutator(nil)
	snap, _, err = m.Load()
	if err != nil || string(snap) != "pristine" {
		t.Fatalf("stored bytes damaged: %q, %v", snap, err)
	}
}

// TestEncodeSnapshotFileRoundTrip: the exported container encoder is the
// exact inverse of ParseSnapshotFile — and byte-identical to what
// SaveSnapshot writes, so a transferred snapshot and a disk snapshot
// pass one integrity gate.
func TestEncodeSnapshotFileRoundTrip(t *testing.T) {
	payload := []byte("state snapshot payload \x00\xff bytes")
	enc := EncodeSnapshotFile(payload)
	if !IsSnapshotFile(enc) {
		t.Fatal("encoded container lacks the magic")
	}
	got, err := ParseSnapshotFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatal("container round trip mangled the payload")
	}
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(disk) != string(enc) {
		t.Fatal("SaveSnapshot and EncodeSnapshotFile disagree on the container bytes")
	}
}
