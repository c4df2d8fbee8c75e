package wire

// Payload migration coverage at the codec layer: bodies are arbitrary
// bytes, and the canonical binary form must round-trip them exactly.

import (
	"bytes"
	"testing"
	"unsafe"

	"anonurb/internal/ident"
)

func binaryBodies() [][]byte {
	return [][]byte{
		nil,
		{},
		{0x00},
		{0xff, 0xfe, 0x00, 0x80},
		bytes.Repeat([]byte{0xc3, 0x28}, 100), // invalid UTF-8 run
	}
}

func TestCodecRoundTripsBinaryBodies(t *testing.T) {
	tag := ident.Tag{Hi: 7, Lo: 9}
	ack := ident.Tag{Hi: 3, Lo: 4}
	labels := []ident.Tag{{Hi: 1, Lo: 1}, {Hi: 2, Lo: 2}}
	for i, body := range binaryBodies() {
		for _, m := range []Message{
			NewMsg(NewMsgID(tag, body)),
			NewAck(NewMsgID(tag, body), ack),
			NewLabeledAck(NewMsgID(tag, body), ack, labels),
		} {
			enc := m.Encode(nil)
			if len(enc) != m.EncodedSize() {
				t.Fatalf("body %d: EncodedSize %d != actual %d", i, m.EncodedSize(), len(enc))
			}
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("body %d: decode: %v", i, err)
			}
			if !dec.Equal(m) {
				t.Fatalf("body %d: round-trip mismatch: %v != %v", i, dec, m)
			}
			if !bytes.Equal(dec.Body, body) && len(dec.Body)+len(body) > 0 {
				t.Fatalf("body %d: bytes mangled: %x want %x", i, dec.Body, body)
			}
		}
	}
}

func TestMsgIDBytesRoundTrip(t *testing.T) {
	tag := ident.Tag{Hi: 5, Lo: 6}
	for i, body := range binaryBodies() {
		id := NewMsgID(tag, body)
		if !bytes.Equal(id.Bytes(), body) && len(id.Bytes())+len(body) > 0 {
			t.Fatalf("body %d: MsgID.Bytes mangled: %x want %x", i, id.Bytes(), body)
		}
		// The identity must survive a trip through the wire message.
		if got := NewMsg(id).ID(); got != id {
			t.Fatalf("body %d: Message.ID() changed identity: %v != %v", i, got, id)
		}
	}
	// MsgID stays comparable and usable as a map key for binary bodies.
	set := map[MsgID]bool{}
	for _, body := range binaryBodies() {
		set[NewMsgID(tag, body)] = true
	}
	// nil and {} intern to the same empty body — by design, they are the
	// same payload.
	if len(set) != len(binaryBodies())-1 {
		t.Fatalf("map keying broken: %d distinct ids", len(set))
	}
}

// TestDecodedBodyBorrowsFrame pins the decode side of the shared-bytes
// contract: a decoded body is the frame's own bytes, found in place for
// every body-bearing kind (SNAPCHUNK and the second message of a batch
// included), with its capacity clipped so an append cannot run into the
// next message.
func TestDecodedBodyBorrowsFrame(t *testing.T) {
	id := NewMsgID(ident.Tag{Hi: 1, Lo: 2}, []byte{0xaa, 0xbb})
	ack := ident.Tag{Hi: 3, Lo: 4}
	for _, m := range []Message{
		NewMsg(id),
		NewAck(id, ack),
		NewAckDelta(id, ack, 1, nil, nil),
		NewAckResync(id, ack),
		NewSnapChunk(9, 10, 4, []byte{0xaa, 0xbb}),
	} {
		lead := NewMsg(NewMsgID(ident.Tag{Hi: 5, Lo: 6}, []byte("lead")))
		frame := m.Encode(lead.Encode(nil))
		_, rest, err := DecodePrefix(frame)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(rest)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		at := bytes.Index(rest, []byte{0xaa, 0xbb})
		if at < 0 || &dec.Body[0] != &rest[at] {
			t.Fatalf("%v: decoded body %p does not borrow the frame", m.Kind, dec.Body)
		}
		if cap(dec.Body) != len(dec.Body) {
			t.Fatalf("%v: borrowed body has capacity %d beyond its length %d", m.Kind, cap(dec.Body), len(dec.Body))
		}
		rest[at] = 0x11
		if dec.Body[0] != 0x11 {
			t.Fatalf("%v: decoded body is a copy", m.Kind)
		}
	}
}

// TestBuiltBodySharesIdentity pins the constructor side: a message built
// from a MsgID carries the identity's string bytes, not a copy, with its
// capacity clipped so an append leaves the identity alone.
func TestBuiltBodySharesIdentity(t *testing.T) {
	id := NewMsgID(ident.Tag{Hi: 1, Lo: 2}, []byte("shared payload"))
	ack := ident.Tag{Hi: 3, Lo: 4}
	labels := []ident.Tag{{Hi: 7, Lo: 7}}
	for _, m := range []Message{
		NewMsg(id),
		NewAck(id, ack),
		NewLabeledAck(id, ack, labels),
		NewAckDelta(id, ack, 2, labels, nil),
		NewAckSnapshot(id, ack, 1, labels),
		NewAckResync(id, ack),
	} {
		if unsafe.SliceData(m.Body) != unsafe.StringData(id.Body) {
			t.Fatalf("%v: body is a copy of the identity", m.Kind)
		}
		if cap(m.Body) != len(m.Body) {
			t.Fatalf("%v: shared body has capacity %d beyond its length %d", m.Kind, cap(m.Body), len(m.Body))
		}
		if grown := append(m.Body, '!'); unsafe.SliceData(grown) == unsafe.StringData(id.Body) {
			t.Fatalf("%v: append onto a shared body wrote in place", m.Kind)
		}
	}
	if m := NewMsg(MsgID{Tag: id.Tag}); m.Body != nil {
		t.Fatalf("empty identity built body %v, want nil", m.Body)
	}
}

// TestDecodePrefixAllocs: decoding the steady-state kinds — MSG, ACK,
// ACKREQ and the unchanged re-ACK (an ACKΔ with no labels) — allocates
// nothing, so a duplicate costs its decode no heap at all.
func TestDecodePrefixAllocs(t *testing.T) {
	id := NewMsgID(ident.Tag{Hi: 1, Lo: 2}, []byte("a sixty-byte payload, give or take, like the benchmark's"))
	ack := ident.Tag{Hi: 3, Lo: 4}
	for _, m := range []Message{
		NewMsg(id),
		NewAck(id, ack),
		NewAckResync(id, ack),
		NewAckDelta(id, ack, 1, nil, nil),
	} {
		frame := m.Encode(nil)
		var sink Message
		got := testing.AllocsPerRun(100, func() {
			var err error
			if sink, _, err = DecodePrefix(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("DecodePrefix(%v) allocates %v, want 0", m.Kind, got)
		}
		if !sink.Equal(m) {
			t.Errorf("%v: decoded %v", m.Kind, sink)
		}
	}
}
