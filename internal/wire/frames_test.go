package wire_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/nemesis"
	"anonurb/internal/wire"
)

// The reference frames in testdata/frames/wire.json pin the wire bytes
// themselves, not just encode∘decode: each row is a hex frame with
// either the messages it decodes to (plus what PeekFlow reports for its
// first message) or the exact error the decoder returns. A codec change
// that moves a byte, reorders a check or changes which error a malformed
// frame draws fails here even when its own round trips agree with
// themselves. Rows are never re-recorded: a deliberate wire change adds
// new rows and a new codec version.

// frameRow is one reference frame.
type frameRow struct {
	Name string `json:"name"`
	Hex  string `json:"hex"`
	// Batch decodes the frame with DecodeBatch (the receiver's prefix
	// walk); otherwise it is one message and decodes with Decode.
	Batch bool `json:"batch,omitempty"`
	// Msgs is what the frame decodes to; Err names the error instead.
	Msgs []frameMsg `json:"msgs,omitempty"`
	Err  string     `json:"err,omitempty"`
	Peek framePeek  `json:"peek"`
	// FlipOf names the row this frame is a one-bit flip of; FlipGate must
	// refuse the flip (it decodes to a message the sender never sent).
	FlipOf string `json:"flip_of,omitempty"`
}

// framePeek is PeekFlow's result on the frame.
type framePeek struct {
	Kind string `json:"kind,omitempty"`
	Flow uint64 `json:"flow,omitempty"`
	Size int    `json:"size,omitempty"`
	Err  string `json:"err,omitempty"`
}

// frameMsg is a decoded message: bytes and tags in hex, a tag as its 32
// hex digits (Hi then Lo).
type frameMsg struct {
	Kind      string   `json:"kind"`
	Body      string   `json:"body,omitempty"`
	Tag       string   `json:"tag,omitempty"`
	AckTag    string   `json:"ack_tag,omitempty"`
	Labels    []string `json:"labels,omitempty"`
	DelLabels []string `json:"del_labels,omitempty"`
	Epoch     uint64   `json:"epoch,omitempty"`
	Flags     uint8    `json:"flags,omitempty"`
	Ref       uint64   `json:"ref,omitempty"`
	Off       uint64   `json:"off,omitempty"`
	Total     uint64   `json:"total,omitempty"`
	Sum       uint32   `json:"sum,omitempty"`
}

var frameErrs = map[string]error{
	"ErrShort":      wire.ErrShort,
	"ErrVersion":    wire.ErrVersion,
	"ErrKind":       wire.ErrKind,
	"ErrOversize":   wire.ErrOversize,
	"ErrTrailing":   wire.ErrTrailing,
	"ErrZeroTag":    wire.ErrZeroTag,
	"ErrZeroAckTag": wire.ErrZeroAckTag,
	"ErrZeroEpoch":  wire.ErrZeroEpoch,
	"ErrBadFlags":   wire.ErrBadFlags,
	"ErrZeroRef":    wire.ErrZeroRef,
	"ErrChecksum":   wire.ErrChecksum,
	"ErrSnapBounds": wire.ErrSnapBounds,
}

func frameErr(t *testing.T, row, name string) error {
	t.Helper()
	err, ok := frameErrs[name]
	if !ok {
		t.Fatalf("%s: unknown error name %q", row, name)
	}
	return err
}

func frameKind(t *testing.T, name string) wire.Kind {
	t.Helper()
	for k := wire.Kind(1); k < 255; k++ {
		if k.String() == name {
			return k
		}
	}
	t.Fatalf("unknown kind %q", name)
	return 0
}

func frameTag(t *testing.T, s string) ident.Tag {
	t.Helper()
	if s == "" {
		return ident.Tag{}
	}
	if len(s) != 32 {
		t.Fatalf("tag %q: want 32 hex digits", s)
	}
	hi, err1 := strconv.ParseUint(s[:16], 16, 64)
	lo, err2 := strconv.ParseUint(s[16:], 16, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("tag %q: not hex", s)
	}
	return ident.Tag{Hi: hi, Lo: lo}
}

func frameTags(t *testing.T, ss []string) []ident.Tag {
	t.Helper()
	var out []ident.Tag
	for _, s := range ss {
		out = append(out, frameTag(t, s))
	}
	return out
}

func frameHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("hex %q: %v", s, err)
	}
	return b
}

func (fm frameMsg) message(t *testing.T) wire.Message {
	t.Helper()
	m := wire.Message{
		Kind:      frameKind(t, fm.Kind),
		Tag:       frameTag(t, fm.Tag),
		AckTag:    frameTag(t, fm.AckTag),
		Labels:    frameTags(t, fm.Labels),
		DelLabels: frameTags(t, fm.DelLabels),
		Epoch:     fm.Epoch,
		Flags:     fm.Flags,
		Ref:       fm.Ref,
		Off:       fm.Off,
		Total:     fm.Total,
		Sum:       fm.Sum,
	}
	if fm.Body != "" {
		m.Body = frameHex(t, fm.Body)
	}
	return m
}

func loadFrameRows(t *testing.T) []frameRow {
	t.Helper()
	data, err := os.ReadFile("testdata/frames/wire.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []frameRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestReferenceFrames checks every row both ways: the frame decodes to
// the row's messages (or error), the messages encode to the frame,
// EncodedSize counts it, and PeekFlow classifies it.
func TestReferenceFrames(t *testing.T) {
	rows := loadFrameRows(t)
	byName := make(map[string][]byte, len(rows))
	for _, row := range rows {
		if _, dup := byName[row.Name]; dup {
			t.Fatalf("duplicate row %q", row.Name)
		}
		byName[row.Name] = frameHex(t, row.Hex)
	}
	for _, row := range rows {
		frame := byName[row.Name]
		var got []wire.Message
		var err error
		if row.Batch {
			got, err = wire.DecodeBatch(frame)
		} else {
			var m wire.Message
			if m, err = wire.Decode(frame); err == nil {
				got = []wire.Message{m}
			}
		}
		switch {
		case row.Err != "":
			if want := frameErr(t, row.Name, row.Err); !errors.Is(err, want) {
				t.Errorf("%s: decode error %v, want %v", row.Name, err, want)
			}
		case err != nil:
			t.Errorf("%s: decode: %v", row.Name, err)
		case len(got) != len(row.Msgs):
			t.Errorf("%s: decoded %d messages, want %d", row.Name, len(got), len(row.Msgs))
		default:
			var enc []byte
			for i, fm := range row.Msgs {
				want := fm.message(t)
				if !got[i].Equal(want) {
					t.Errorf("%s: message %d decoded %v, want %v", row.Name, i, got[i], want)
				}
				size := len(enc)
				enc = want.Encode(enc)
				if want.EncodedSize() != len(enc)-size {
					t.Errorf("%s: message %d EncodedSize %d, encodes to %d bytes", row.Name, i, want.EncodedSize(), len(enc)-size)
				}
			}
			if !bytes.Equal(enc, frame) {
				t.Errorf("%s: encodes to %x, want %x", row.Name, enc, frame)
			}
		}

		kind, flow, size, perr := wire.PeekFlow(frame)
		if row.Peek.Err != "" {
			if want := frameErr(t, row.Name, row.Peek.Err); !errors.Is(perr, want) {
				t.Errorf("%s: PeekFlow error %v, want %v", row.Name, perr, want)
			}
		} else if perr != nil || kind != frameKind(t, row.Peek.Kind) || flow != row.Peek.Flow || size != row.Peek.Size {
			t.Errorf("%s: PeekFlow = (%v, %#x, %d, %v), want (%s, %#x, %d, nil)",
				row.Name, kind, flow, size, perr, row.Peek.Kind, row.Peek.Flow, row.Peek.Size)
		}

		if row.FlipOf != "" {
			orig, ok := byName[row.FlipOf]
			if !ok {
				t.Fatalf("%s: flip of unknown row %q", row.Name, row.FlipOf)
			}
			if diff := flippedBits(orig, frame); diff != 1 {
				t.Errorf("%s: differs from %s in %d bits, want 1", row.Name, row.FlipOf, diff)
			}
			if nemesis.FlipGate(orig, frame) {
				t.Errorf("%s: FlipGate admits a flip that decodes to a message %s never held", row.Name, row.FlipOf)
			}
		}
	}
}

// TestReferenceFramePrefixes: every proper prefix of a frame that
// decodes is a short read for both the decoder and PeekFlow, so a frame
// cut anywhere is loss.
func TestReferenceFramePrefixes(t *testing.T) {
	for _, row := range loadFrameRows(t) {
		if row.Err != "" || row.Batch {
			continue
		}
		frame := frameHex(t, row.Hex)
		for n := 0; n < len(frame); n++ {
			if _, err := wire.Decode(frame[:n]); !errors.Is(err, wire.ErrShort) {
				t.Errorf("%s cut at %d: decode error %v, want ErrShort", row.Name, n, err)
			}
			if _, _, _, err := wire.PeekFlow(frame[:n]); !errors.Is(err, wire.ErrShort) {
				t.Errorf("%s cut at %d: PeekFlow error %v, want ErrShort", row.Name, n, err)
			}
		}
	}
}

func flippedBits(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	n := 0
	for i := range a {
		for x := a[i] ^ b[i]; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}
