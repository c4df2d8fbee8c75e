package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// storeFrameRow is one reference store frame from the shared reference
// frame set (internal/wire/testdata/frames/store.json): a snapshot
// container with its payload or error, or a whole WAL file with the
// records a Load replays from it. Never re-recorded.
type storeFrameRow struct {
	Name    string   `json:"name"`
	Hex     string   `json:"hex"`
	WAL     bool     `json:"wal"`
	Payload string   `json:"payload"`
	Records []string `json:"records"`
	Err     string   `json:"err"`
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("hex %q: %v", s, err)
	}
	return b
}

// TestReferenceStoreFrames pins the snapshot container and the WAL file
// framing, both ways: what SaveSnapshot and AppendWAL write, and what
// ParseSnapshotFile and Load accept from given bytes.
func TestReferenceStoreFrames(t *testing.T) {
	data, err := os.ReadFile("../wire/testdata/frames/store.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []storeFrameRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		frame := unhex(t, row.Hex)
		if row.WAL {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walFileName), frame, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenFile(dir)
			if err != nil {
				t.Fatalf("%s: %v", row.Name, err)
			}
			_, recs, err := s.Load()
			s.Close()
			if err != nil {
				t.Fatalf("%s: load: %v", row.Name, err)
			}
			if len(recs) != len(row.Records) {
				t.Fatalf("%s: %d records, want %d", row.Name, len(recs), len(row.Records))
			}
			fresh, err := OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range row.Records {
				want := unhex(t, r)
				if !bytes.Equal(recs[i], want) {
					t.Errorf("%s: record %d = %x, want %x", row.Name, i, recs[i], want)
				}
				if err := fresh.AppendWAL(want); err != nil {
					t.Fatal(err)
				}
			}
			fresh.Close()
			// The valid prefix is what AppendWAL writes for the records.
			written, err := os.ReadFile(filepath.Join(fresh.Dir(), walFileName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(frame, written) {
				t.Errorf("%s: AppendWAL writes %x, not a prefix of %x", row.Name, written, frame)
			}
			// Load truncated the file to exactly that prefix.
			kept, err := os.ReadFile(filepath.Join(dir, walFileName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(kept, written) {
				t.Errorf("%s: Load kept %x, want %x", row.Name, kept, written)
			}
			continue
		}
		payload, err := ParseSnapshotFile(frame)
		if row.Err != "" {
			if row.Err != "ErrSnapshotFile" || !errors.Is(err, ErrSnapshotFile) {
				t.Errorf("%s: error %v, want %s", row.Name, err, row.Err)
			}
			continue
		}
		want := unhex(t, row.Payload)
		if err != nil || !bytes.Equal(payload, want) {
			t.Errorf("%s: ParseSnapshotFile = (%x, %v), want %x", row.Name, payload, err, want)
		}
		if enc := EncodeSnapshotFile(want); !bytes.Equal(enc, frame) {
			t.Errorf("%s: EncodeSnapshotFile = %x, want %x", row.Name, enc, frame)
		}
	}
}
