// Package replay records a run's broadcast schedule to a compact trace
// file and plays it back as a workload, so any interesting run — a
// skewed generator's output, a flood, a production capture — becomes a
// reproducible scenario for the simulator, the live cluster and the
// benchmarks.
//
// A schedule is the application-level input of a run: who URB-broadcast
// what and when. It deliberately records the payload's digest and size,
// not its bytes: replayed payloads are regenerated as a pure function of
// (digest, size), which keeps trace files tiny (one short line per
// broadcast, independent of payload size), keeps replays byte-identical
// across runs, and never persists application data into benchmark
// artifacts.
//
// The file format follows the repository's trace-file discipline
// (versioned, line-oriented, streamable, corruption-evident):
//
//	anonurb-sched v1 n=<procs> count=<entries> crc=<8hex>
//	<at> <proc> <size> <16hex digest> crc=<8hex>
//	...
//
// Every line carries a CRC32 (IEEE) of its preceding text, and the
// header pre-declares the entry count, so a truncated header, a torn
// tail and a flipped byte are all detected — a schedule either reads
// back exactly or fails loudly.
package replay

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"anonurb/internal/sim"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Schedule file errors.
var (
	// ErrHeader marks a missing or malformed header line (including a
	// truncated file that ends inside it).
	ErrHeader = errors.New("replay: malformed schedule header")
	// ErrVersion marks a schedule written by an unknown format version.
	ErrVersion = errors.New("replay: unknown schedule version")
	// ErrCRC marks a line whose checksum does not match its text.
	ErrCRC = errors.New("replay: schedule line checksum mismatch")
	// ErrEntry marks a malformed or out-of-bounds entry line.
	ErrEntry = errors.New("replay: malformed schedule entry")
	// ErrTruncated marks a file that ends before the header's declared
	// entry count — the torn-tail case.
	ErrTruncated = errors.New("replay: schedule truncated before declared count")
	// ErrTrailing marks bytes after the last declared entry.
	ErrTrailing = errors.New("replay: data after last schedule entry")
)

const (
	magic         = "anonurb-sched"
	formatVersion = 1
)

// Entry is one recorded broadcast: process proc URB-broadcast a
// size-byte payload with the given digest at virtual time At.
type Entry struct {
	At     sim.Time
	Proc   int
	Size   int
	Digest uint64
}

// Schedule is a recorded broadcast schedule for a system of N processes.
type Schedule struct {
	N       int
	Entries []Entry
}

// Record returns the broadcast schedule of a simulator run of n
// processes: every URB_broadcast the run executed
// (sim.Result.Broadcasts), in order.
func Record(n int, broadcasts []sim.BroadcastAt) *Schedule {
	s := &Schedule{N: n, Entries: make([]Entry, 0, len(broadcasts))}
	for _, b := range broadcasts {
		s.Entries = append(s.Entries, Entry{
			At:     b.At,
			Proc:   b.Proc,
			Size:   len(b.ID.Body),
			Digest: BodyDigest([]byte(b.ID.Body)),
		})
	}
	return s
}

// BodyDigest returns the 64-bit FNV-1a digest of a payload — the
// identity a schedule stores in place of the bytes.
func BodyDigest(body []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range body {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// Body regenerates a replay payload for e: a pure function of (digest,
// size), so every replay of a schedule broadcasts byte-identical
// payloads. The original bytes are not recoverable (the schedule never
// stored them); what is preserved is identity — distinct recorded
// payloads yield distinct replayed payloads (up to digest collision) of
// the recorded sizes.
func (e Entry) Body() []byte {
	if e.Size <= 0 {
		return nil
	}
	body := make([]byte, e.Size)
	rng := xrand.New(xrand.HashStream(e.Digest, uint64(e.Size)))
	i := 0
	for ; i+8 <= e.Size; i += 8 {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			body[i+k] = byte(v >> (8 * k))
		}
	}
	if i < e.Size {
		v := rng.Uint64()
		for ; i < e.Size; i++ {
			body[i] = byte(v)
			v >>= 8
		}
	}
	return body
}

// lineCRC is the checksum every schedule line carries over its
// preceding text.
func lineCRC(text string) uint32 {
	return crc32.ChecksumIEEE([]byte(text))
}

// Write streams s in the schedule file format.
func (s *Schedule) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	head := fmt.Sprintf("%s v%d n=%d count=%d", magic, formatVersion, s.N, len(s.Entries))
	if _, err := fmt.Fprintf(bw, "%s crc=%08x\n", head, lineCRC(head)); err != nil {
		return err
	}
	for _, e := range s.Entries {
		line := fmt.Sprintf("%d %d %d %016x", e.At, e.Proc, e.Size, e.Digest)
		if _, err := fmt.Fprintf(bw, "%s crc=%08x\n", line, lineCRC(line)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes s to path (atomically enough for a trace artifact:
// create/truncate, write, close).
func (s *Schedule) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitCRC separates a schedule line into its text and its declared
// checksum, verifying the two match.
func splitCRC(line string) (string, error) {
	i := strings.LastIndex(line, " crc=")
	if i < 0 || len(line)-i-len(" crc=") != 8 {
		return "", ErrCRC
	}
	text := line[:i]
	want, err := strconv.ParseUint(line[i+len(" crc="):], 16, 32)
	if err != nil || lineCRC(text) != uint32(want) {
		return "", ErrCRC
	}
	return text, nil
}

// Read parses a schedule, verifying version, per-line checksums and the
// declared entry count.
func Read(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, ErrHeader
	}
	text, err := splitCRC(sc.Text())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHeader, err)
	}
	var version, n, count int
	if _, err := fmt.Sscanf(text, magic+" v%d n=%d count=%d", &version, &n, &count); err != nil {
		return nil, ErrHeader
	}
	if version != formatVersion {
		return nil, ErrVersion
	}
	if n < 1 || count < 0 {
		return nil, ErrHeader
	}
	// Capacity is clamped so a forged header cannot demand a huge
	// allocation before the (missing) entries disprove it.
	s := &Schedule{N: n, Entries: make([]Entry, 0, min(count, 4096))}
	for i := 0; i < count; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, ErrTruncated
		}
		text, err := splitCRC(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		var e Entry
		if _, err := fmt.Sscanf(text, "%d %d %d %x", &e.At, &e.Proc, &e.Size, &e.Digest); err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, ErrEntry)
		}
		if e.At < 0 || e.Proc < 0 || e.Size < 0 || e.Size > wire.MaxBody {
			return nil, fmt.Errorf("entry %d: %w", i, ErrEntry)
		}
		s.Entries = append(s.Entries, e)
	}
	if sc.Scan() {
		return nil, ErrTrailing
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadFile reads a schedule from path.
func ReadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
