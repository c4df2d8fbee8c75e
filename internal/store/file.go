package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"anonurb/internal/codec"
)

// File layout. The snapshot file is
//
//	magic "AURBSNAP" | version u8 | payloadLen u32 | payload | crc32 u32
//
// written to a temp file, fsynced and renamed into place: readers see
// either the old snapshot or the new one, never a half-written mix (a
// temp file left behind by a crash is ignored and overwritten). The WAL
// file is a sequence of records
//
//	recLen u32 | crc32(payload) u32 | payload
//
// appended with a single write each (fsynced per append unless the
// store was opened with OpenFileNoSync). Replay stops at the first record
// whose frame is cut short or whose checksum fails — a torn tail from a
// crash mid-append — and truncates the file there, so the next append
// extends a clean log. crc32 (Castagnoli) catches the partial writes and
// bit rot this layer is responsible for; end-to-end state corruption is
// additionally caught by the urb snapshot codec's fingerprint digest.
const (
	snapMagic    = "AURBSNAP"
	snapFileVer  = 1
	snapFileName = "snapshot.bin"
	walFileName  = "wal.log"

	walFrameLen = 8 // recLen u32 | crc u32
	// maxWALRecord bounds a single record's claimed length: a frame
	// whose length field exceeds it is treated as a tear, bounding the
	// allocation a corrupt length can force. Generous: records are an
	// encoded MsgID plus a few fixed fields, and bodies are capped by
	// wire.MaxBody (60 KiB).
	maxWALRecord = 1 << 20
)

// ErrSnapshotFile is wrapped by snapshot-file integrity failures. A
// corrupt snapshot is NOT silently dropped (unlike a torn WAL tail, it
// is not an expected crash artefact): recovery must fail loudly rather
// than restart amnesiac.
var ErrSnapshotFile = errors.New("store: snapshot file corrupt")

// errTorn ends a WAL scan at a record that is cut short or claims more
// than maxWALRecord bytes: a tear, not an error (see scanWAL).
var errTorn = errors.New("store: torn wal record")

// File is the file-backed Store: one directory per process, holding
// snapshot.bin and wal.log.
type File struct {
	mu     sync.Mutex
	dir    string
	wal    *os.File
	sync   bool
	stats  Stats
	closed bool
	// opened holds the WAL records the open read, for the first Load to
	// return, until an append or a snapshot makes them stale.
	opened [][]byte
}

var _ Store = (*File)(nil)

// OpenFile opens (creating if needed) the store directory. The WAL is
// opened for appending; an existing store's counters are primed from the
// files so Stats reflects reality after a restart.
//
// Every WAL append is fsynced: the write-ahead contract — the outside
// world never sees an event the store could lose — must hold across OS
// crashes and power loss, not just process crashes. A lost tag_ack pin,
// for instance, would make the recovered process ack under a second
// identity (the phantom-acker over-counting of DESIGN.md §9). Use
// OpenFileNoSync when that window is acceptable.
func OpenFile(dir string) (*File, error) {
	return openFile(dir, true)
}

// OpenFileNoSync is OpenFile without the per-append fsync: appends land
// in the OS page cache and survive process crashes but may be lost to an
// OS crash or power failure. For workloads where the ~per-append fsync
// cost dominates and machine-level durability is provided elsewhere (or
// genuinely not needed).
func OpenFileNoSync(dir string) (*File, error) {
	return openFile(dir, false)
}

func openFile(dir string, sync bool) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &File{dir: dir, wal: wal, sync: sync}
	if info, err := os.Stat(s.snapPath()); err == nil && info.Size() > 0 {
		// Approximate (includes framing); Load refines it to the payload.
		s.stats.SnapshotBytes = uint64(info.Size())
	}
	recs, err := s.readWAL()
	if err != nil {
		wal.Close()
		return nil, err
	}
	s.opened = recs
	return s, nil
}

func (s *File) snapPath() string { return filepath.Join(s.dir, snapFileName) }

// readWAL reads the WAL's valid prefix, truncates any torn tail left by
// a crash, positions the append offset at the end of the prefix and sets
// the WAL counters from it. The open runs it, so counters are meaningful
// before the first Load, and so does a Load with nothing left from the
// open.
func (s *File) readWAL() ([][]byte, error) {
	recs, valid, err := scanWAL(s.wal)
	if err != nil {
		return nil, err
	}
	if err := s.wal.Truncate(valid); err != nil {
		return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
	}
	if _, err := s.wal.Seek(valid, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.stats.WALRecords, s.stats.WALBytes = uint64(len(recs)), 0
	for _, r := range recs {
		s.stats.WALBytes += uint64(len(r))
	}
	return recs, nil
}

// scanWAL reads every whole, checksummed record from the start of f and
// returns them with the byte offset where the valid prefix ends. The
// records share one buffer.
func scanWAL(f *os.File) ([][]byte, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	var recs [][]byte
	valid := 0
	r := codec.NewReader(data, &errTorn)
	for r.Len() > 0 {
		n := r.Count(1, maxWALRecord, &errTorn)
		crc := r.U32()
		payload := r.Bytes(n)
		if r.Err() != nil || codec.Checksum(payload) != crc {
			break // cut short, an absurd length, or half-written or rotted: a tear
		}
		recs = append(recs, payload)
		valid = len(data) - r.Len()
	}
	return recs, int64(valid), nil
}

// SaveSnapshot implements Store: write-temp + fsync + rename, then reset
// the WAL. See the compaction contract in the package doc for the crash
// window between the two steps.
func (s *File) SaveSnapshot(snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	buf := EncodeSnapshotFile(snap)

	tmp, err := os.CreateTemp(s.dir, snapFileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.snapPath()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.sync {
		// Persist the rename itself: without a directory fsync the new
		// name may not survive a power loss even though the data would.
		if d, err := os.Open(s.dir); err == nil {
			_ = d.Sync() // best-effort: not all filesystems support it
			d.Close()
		}
	}
	// Compact: the WAL restarts after the snapshot. Truncate-in-place
	// keeps the already-open append handle valid.
	s.opened = nil
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.stats.SnapshotBytes = uint64(len(snap))
	s.stats.SnapshotSaves++
	s.stats.WALRecords, s.stats.WALBytes = 0, 0
	return nil
}

// AppendWAL implements Store. One write syscall per record keeps the
// torn-tail window to a single record, which is exactly what Load's
// replay tolerates; the per-append fsync (unless OpenFileNoSync)
// extends the write-ahead guarantee to OS crashes and power loss.
func (s *File) AppendWAL(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(rec) > maxWALRecord {
		return fmt.Errorf("store: wal record %d bytes exceeds bound %d", len(rec), maxWALRecord)
	}
	frame := make([]byte, 0, walFrameLen+len(rec))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(rec)))
	frame = binary.BigEndian.AppendUint32(frame, codec.Checksum(rec))
	frame = append(frame, rec...)
	s.opened = nil
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.stats.WALRecords++
	s.stats.WALBytes += uint64(len(rec))
	return nil
}

// Load implements Store. The WAL's valid prefix is returned and any torn
// tail truncated; a corrupt snapshot file is an error (recovery must not
// silently restart from nothing when durable state existed). The first
// Load after the open returns the records the open read, unless an
// append or a snapshot came in between: the WAL is read once per
// restart.
func (s *File) Load() ([]byte, [][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	snap, err := s.loadSnapshot()
	if err != nil {
		return nil, nil, err
	}
	recs := s.opened
	s.opened = nil
	if recs == nil {
		if recs, err = s.readWAL(); err != nil {
			return nil, nil, err
		}
	}
	if snap != nil {
		s.stats.SnapshotBytes = uint64(len(snap))
	}
	return snap, recs, nil
}

// loadSnapshot reads and verifies snapshot.bin; a missing file is a nil
// snapshot (a store that never checkpointed).
func (s *File) loadSnapshot() ([]byte, error) {
	data, err := os.ReadFile(s.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return ParseSnapshotFile(data)
}

// EncodeSnapshotFile frames a snapshot payload in the container format
// (the snapshot.bin layout: magic, version, length, payload, CRC-32C).
// SaveSnapshot writes exactly these bytes, and the join protocol
// (DESIGN.md §13) transfers exactly these bytes chunk by chunk, so a
// received snapshot passes through the same integrity gate as one read
// off disk.
func EncodeSnapshotFile(snap []byte) []byte {
	buf := make([]byte, 0, len(snapMagic)+1+4+len(snap)+4)
	buf = append(append(buf, snapMagic...), snapFileVer)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(snap)))
	buf = append(buf, snap...)
	return binary.BigEndian.AppendUint32(buf, codec.Checksum(snap))
}

// IsSnapshotFile reports whether data begins with the snapshot
// container magic (tooling uses it to distinguish container files from
// raw snapshot payloads).
func IsSnapshotFile(data []byte) bool {
	return len(data) >= len(snapMagic) && string(data[:len(snapMagic)]) == snapMagic
}

// ParseSnapshotFile verifies a snapshot container (the snapshot.bin
// format) and returns its payload. Exposed for tooling
// (cmd/urbcheck -snapshot) so integrity reporting matches what recovery
// would accept.
func ParseSnapshotFile(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic)+1+4+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotFile, len(data))
	}
	r := codec.NewReader(data, &ErrSnapshotFile)
	if string(r.Bytes(len(snapMagic))) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotFile)
	}
	if v := r.U8(); v != snapFileVer {
		return nil, fmt.Errorf("%w: unknown container version %d", ErrSnapshotFile, v)
	}
	n := r.U32()
	if uint64(n)+4 != uint64(r.Len()) {
		return nil, fmt.Errorf("%w: length %d in a %d-byte file", ErrSnapshotFile, n, len(data))
	}
	payload := r.Bytes(int(n))
	if codec.Checksum(payload) != r.U32() {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotFile)
	}
	return append([]byte(nil), payload...), nil
}

// Stats implements Store.
func (s *File) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Store.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}

// Dir returns the store's directory (for tooling and logs).
func (s *File) Dir() string { return s.dir }
