package urb

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// walFrameRow is one reference WAL record from the shared reference
// frame set (internal/wire/testdata/frames/wal.json): the record's hex
// and either the event it decodes to or the error it draws. Like the
// wire rows, these are never re-recorded.
type walFrameRow struct {
	Name  string `json:"name"`
	Hex   string `json:"hex"`
	Event *struct {
		Kind  string `json:"kind"`
		Tag   string `json:"tag"`
		Body  string `json:"body"`
		Fast  bool   `json:"fast"`
		Ack   string `json:"ack"`
		Draws uint64 `json:"draws"`
	} `json:"event"`
	Err string `json:"err"`
}

func walFrameTag(t *testing.T, s string) ident.Tag {
	t.Helper()
	if s == "" {
		return ident.Tag{}
	}
	hi, err1 := strconv.ParseUint(s[:16], 16, 64)
	lo, err2 := strconv.ParseUint(s[16:], 16, 64)
	if len(s) != 32 || err1 != nil || err2 != nil {
		t.Fatalf("tag %q: want 32 hex digits", s)
	}
	return ident.Tag{Hi: hi, Lo: lo}
}

// TestReferenceWALRecords pins the WAL record bytes of every WALKind,
// both ways, and the rejection of each malformed record.
func TestReferenceWALRecords(t *testing.T) {
	data, err := os.ReadFile("../wire/testdata/frames/wal.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []walFrameRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, row := range rows {
		rec, err := hex.DecodeString(row.Hex)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		got, err := DecodeWALRecord(rec)
		if row.Err != "" {
			if row.Err != "ErrWALRecord" || !errors.Is(err, ErrWALRecord) {
				t.Errorf("%s: error %v, want %s", row.Name, err, row.Err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.Name, err)
			continue
		}
		body, err := hex.DecodeString(row.Event.Body)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		want := DurableEvent{
			ID:    wire.MsgID{Tag: walFrameTag(t, row.Event.Tag), Body: string(body)},
			Fast:  row.Event.Fast,
			Ack:   walFrameTag(t, row.Event.Ack),
			Draws: row.Event.Draws,
		}
		for k := WALKind(1); k < 255; k++ {
			if k.String() == row.Event.Kind {
				want.Kind = k
			}
		}
		if want.Kind == 0 {
			t.Fatalf("%s: unknown kind %q", row.Name, row.Event.Kind)
		}
		kinds[row.Event.Kind] = true
		if got != want {
			t.Errorf("%s: decoded %+v, want %+v", row.Name, got, want)
		}
		if enc := want.EncodeWAL(); !bytes.Equal(enc, rec) {
			t.Errorf("%s: encodes to %x, want %x", row.Name, enc, rec)
		}
	}
	for _, k := range []WALKind{WALDeliver, WALPin, WALBroadcast} {
		if !kinds[k.String()] {
			t.Errorf("no reference record of kind %v", k)
		}
	}
}
