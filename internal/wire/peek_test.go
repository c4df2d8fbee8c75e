package wire

import (
	"errors"
	"testing"

	"anonurb/internal/ident"
)

// peekCases is one message of every kind, with the flow PeekFlow must
// report (Tag.Hi for the MSG/ACK family, 0 for the beat family).
func peekCases() []struct {
	name string
	m    Message
	flow uint64
} {
	id := MsgID{Tag: tag(0xF0, 7), Body: "peeked body"}
	return []struct {
		name string
		m    Message
		flow uint64
	}{
		{"msg", NewMsg(id), 0xF0},
		{"ack", NewAck(id, tag(0xA1, 1)), 0xF0},
		{"labeled-ack", NewLabeledAck(id, tag(0xA1, 1), []ident.Tag{tag(1, 1), tag(2, 2)}), 0xF0},
		{"ack-delta", NewAckDelta(id, tag(0xA1, 1), 3, []ident.Tag{tag(3, 3)}, []ident.Tag{tag(4, 4)}), 0xF0},
		{"ack-snapshot", NewAckSnapshot(id, tag(0xA1, 1), 9, []ident.Tag{tag(5, 5)}), 0xF0},
		{"ack-resync", NewAckResync(id, tag(0xA1, 1)), 0xF0},
		{"beat", NewBeat(tag(0xB0, 2)), 0},
		{"beat-snapshot", NewBeatSnapshot(77, 4, []ident.Tag{tag(6, 6)}), 0},
		{"beat-change", NewBeatChange(77, 5, []ident.Tag{tag(7, 7)}, nil), 0},
		{"beat-refresh", NewBeatRefresh(77, 6), 0},
		{"beat-resync", NewBeatResync(77), 0},
		{"snap-req", NewSnapReq(88, 512), 0},
		{"snap-chunk", NewSnapChunk(88, 64, 8, []byte("chunk of a container")), 0},
	}
}

// TestPeekFlowEveryKind: PeekFlow must report the exact encoded size,
// kind and flow of every wire kind without decoding.
func TestPeekFlowEveryKind(t *testing.T) {
	for _, c := range peekCases() {
		enc := c.m.Encode(nil)
		kind, flow, size, err := PeekFlow(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if kind != c.m.Kind {
			t.Errorf("%s: kind %v, want %v", c.name, kind, c.m.Kind)
		}
		if flow != c.flow {
			t.Errorf("%s: flow %#x, want %#x", c.name, flow, c.flow)
		}
		if size != len(enc) {
			t.Errorf("%s: size %d, want %d", c.name, size, len(enc))
		}
	}
}

// TestPeekFlowWalksBatches: the size PeekFlow reports must step exactly
// from message to message through a concatenated batch frame, and agree
// with DecodeBatch about the contents.
func TestPeekFlowWalksBatches(t *testing.T) {
	var msgs []Message
	for _, c := range peekCases() {
		msgs = append(msgs, c.m)
	}
	frames := EncodeBatch(msgs, 1<<20)
	if len(frames) != 1 {
		t.Fatalf("expected a single frame, got %d", len(frames))
	}
	frame := frames[0]
	var walked int
	for off := 0; off < len(frame); walked++ {
		kind, flow, size, err := PeekFlow(frame[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		want := peekCases()[walked]
		if kind != want.m.Kind || flow != want.flow {
			t.Fatalf("message %d: peeked (%v, %#x), want (%v, %#x)",
				walked, kind, flow, want.m.Kind, want.flow)
		}
		off += size
	}
	if walked != len(msgs) {
		t.Fatalf("walked %d messages, want %d", walked, len(msgs))
	}
	if dec, err := DecodeBatch(frame); err != nil || len(dec) != len(msgs) {
		t.Fatalf("DecodeBatch disagrees: %d msgs, err %v", len(dec), err)
	}
}

// TestPeekFlowErrors: truncations and garbage must error, never panic
// or over-read.
func TestPeekFlowErrors(t *testing.T) {
	enc := NewLabeledAck(MsgID{Tag: tag(1, 2), Body: "abc"}, tag(3, 4),
		[]ident.Tag{tag(5, 6)}).Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := PeekFlow(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, _, err := PeekFlow([]byte{99, byte(KindMsg), 0, 0, 0, 0}); err == nil {
		t.Error("bad version accepted")
	}
	if _, _, _, err := PeekFlow([]byte{codecVersion, 42, 0, 0, 0, 0}); err == nil {
		t.Error("bad kind accepted")
	}
	// Oversized body length must be rejected, not used as a skip.
	bad := NewMsg(MsgID{Tag: tag(1, 1), Body: "x"}).Encode(nil)
	bad[2], bad[3], bad[4], bad[5] = 0xff, 0xff, 0xff, 0x7f
	if _, _, _, err := PeekFlow(bad); err == nil {
		t.Error("oversized body accepted")
	}
}

// TestPeekFlowBeatFlags: PeekFlow refuses the BEATΔ flag bytes
// DecodeInto refuses, since the flags decide which tag lists it walks.
func TestPeekFlowBeatFlags(t *testing.T) {
	for _, flags := range []uint8{BeatFlagSnapshot | BeatFlagDelta, 1 << 2, 0x80} {
		enc := NewBeatChange(77, 5, []ident.Tag{tag(7, 7)}, nil).Encode(nil)
		enc[2] = flags
		if _, _, _, err := PeekFlow(enc); !errors.Is(err, ErrBadFlags) {
			t.Errorf("flags %#x: PeekFlow error %v, want ErrBadFlags", flags, err)
		}
		if _, _, err := DecodePrefix(enc); !errors.Is(err, ErrBadFlags) {
			t.Errorf("flags %#x: DecodePrefix error %v, want ErrBadFlags", flags, err)
		}
	}
}

// TestFlowOf: the flow key is the tag's pinned half.
func TestFlowOf(t *testing.T) {
	if FlowOf(tag(11, 22)) != 11 {
		t.Fatal("FlowOf must return Tag.Hi")
	}
}
