package wire

import (
	"bytes"
	"testing"

	"anonurb/internal/ident"
)

func sampleMessages() []Message {
	return []Message{
		NewMsg(MsgID{Tag: tag(1, 1), Body: "alpha"}),
		NewAck(MsgID{Tag: tag(1, 1), Body: "alpha"}, tag(2, 2)),
		NewLabeledAck(MsgID{Tag: tag(3, 3), Body: string([]byte{0x00, 0xff})},
			tag(4, 4), []ident.Tag{tag(5, 5), tag(6, 6)}),
		NewBeat(tag(7, 7)),
		NewMsg(MsgID{Tag: tag(8, 8), Body: ""}),
	}
}

// TestEncodeBatchRoundTrip: every packing round-trips through
// DecodeBatch to the original message sequence, in order.
func TestEncodeBatchRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	for _, budget := range []int{0, 1, 40, 64, 1 << 20} {
		frames := EncodeBatch(msgs, budget)
		var got []Message
		for _, f := range frames {
			part, err := DecodeBatch(f)
			if err != nil {
				t.Fatalf("budget=%d: decode batch: %v", budget, err)
			}
			got = append(got, part...)
		}
		if len(got) != len(msgs) {
			t.Fatalf("budget=%d: %d messages round-tripped, want %d", budget, len(got), len(msgs))
		}
		for i := range msgs {
			if !got[i].Equal(msgs[i]) {
				t.Fatalf("budget=%d: message %d mangled: got %s want %s", budget, i, got[i], msgs[i])
			}
		}
	}
}

// TestEncodeBatchBudget: no produced frame exceeds the budget unless a
// single message alone does, and batching adds zero byte overhead.
func TestEncodeBatchBudget(t *testing.T) {
	msgs := sampleMessages()
	total := 0
	maxSingle := 0
	for _, m := range msgs {
		total += m.EncodedSize()
		if s := m.EncodedSize(); s > maxSingle {
			maxSingle = s
		}
	}
	for _, budget := range []int{1, maxSingle, maxSingle + 10, total, total + 1} {
		frames := EncodeBatch(msgs, budget)
		sum := 0
		for i, f := range frames {
			sum += len(f)
			if len(f) > budget && len(f) > maxSingle {
				t.Fatalf("budget=%d: frame %d is %dB, exceeds budget without being a lone oversized message", budget, i, len(f))
			}
		}
		if sum != total {
			t.Fatalf("budget=%d: frames sum to %dB, want exactly %dB (batching must add zero overhead)", budget, sum, total)
		}
	}
	if got := EncodeBatch(msgs, 0); len(got) != 1 || len(got[0]) != total {
		t.Fatalf("budget=0 must produce one frame of %dB, got %d frames", total, len(got))
	}
	if got := EncodeBatch(nil, 100); got != nil {
		t.Fatalf("empty input must produce no frames, got %d", len(got))
	}
}

// TestDecodeBatchStrictness: empty frames, trailing garbage and corrupt
// members reject the whole batch.
func TestDecodeBatchStrictness(t *testing.T) {
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	good := NewMsg(MsgID{Tag: tag(1, 2), Body: "ok"}).Encode(nil)
	if _, err := DecodeBatch(append(append([]byte{}, good...), 0xAA, 0xBB)); err == nil {
		t.Fatal("trailing garbage must reject the batch")
	}
	truncated := append(append([]byte{}, good...), good[:len(good)-3]...)
	if _, err := DecodeBatch(truncated); err == nil {
		t.Fatal("truncated second message must reject the batch")
	}
}

// TestEncodeCache: MSG encodings are served from cache byte-for-byte,
// non-MSG kinds bypass it, and the entry bound evicts oldest-first.
func TestEncodeCache(t *testing.T) {
	c := NewEncodeCache(2)
	m1 := NewMsg(MsgID{Tag: tag(1, 1), Body: "one"})
	m2 := NewMsg(MsgID{Tag: tag(2, 2), Body: "two"})
	m3 := NewMsg(MsgID{Tag: tag(3, 3), Body: "three"})

	for i := 0; i < 3; i++ {
		got := c.AppendEncoded(nil, m1)
		if !bytes.Equal(got, m1.Encode(nil)) {
			t.Fatalf("pass %d: cached encoding differs from canonical", i)
		}
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}

	// ACKs are never cached.
	ack := NewAck(MsgID{Tag: tag(1, 1), Body: "one"}, tag(9, 9))
	if got := c.AppendEncoded(nil, ack); !bytes.Equal(got, ack.Encode(nil)) {
		t.Fatal("ACK encoding mangled")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after ACK, want 1", c.Len())
	}

	// Capacity 2: adding m2 then m3 evicts m1 (oldest).
	c.AppendEncoded(nil, m2)
	c.AppendEncoded(nil, m3)
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	_, missesBefore := c.Stats()
	c.AppendEncoded(nil, m1) // must re-encode: it was evicted
	if _, misses := c.Stats(); misses != missesBefore+1 {
		t.Fatal("evicted entry was still served from cache")
	}

	// Appending into an existing buffer extends it.
	buf := []byte{0x42}
	buf = c.AppendEncoded(buf, m2)
	if buf[0] != 0x42 || !bytes.Equal(buf[1:], m2.Encode(nil)) {
		t.Fatal("AppendEncoded does not extend dst correctly")
	}

	// A hit into a buffer with room allocates nothing: in particular no
	// string for the lookup key's body.
	if got := testing.AllocsPerRun(100, func() { buf = c.AppendEncoded(buf[:0], m2) }); got != 0 {
		t.Fatalf("cache hit allocates %v, want 0", got)
	}
}

// TestEncodeCacheTagClash: the cache is keyed by tag, so two bodies
// under one tag (a corrupted copy, a real collision) meet in one slot.
// Each must get its own bytes, in either order, and never be served the
// other's; the first body keeps the slot and its hits.
func TestEncodeCacheTagClash(t *testing.T) {
	first := NewMsg(MsgID{Tag: tag(5, 5), Body: "first"})
	second := NewMsg(MsgID{Tag: tag(5, 5), Body: "other"}) // same length
	longer := NewMsg(MsgID{Tag: tag(5, 5), Body: "first, longer"})
	c := NewEncodeCache(4)
	for pass := 0; pass < 3; pass++ {
		for _, m := range []Message{first, second, longer} {
			if got := c.AppendEncoded(nil, m); !bytes.Equal(got, m.Encode(nil)) {
				t.Fatalf("pass %d: %q served %x, want its own %x", pass, m.Body, got, m.Encode(nil))
			}
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 (the first body's)", c.Len())
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 7 {
		t.Fatalf("hits=%d misses=%d, want 2/7: only the first body is cached", hits, misses)
	}
}

// TestEncodeCacheChurn: sustained churn far beyond capacity keeps the
// entry count bounded (once the ring is full, each new entry takes the
// oldest one's place).
func TestEncodeCacheChurn(t *testing.T) {
	c := NewEncodeCache(8)
	for i := 0; i < 10_000; i++ {
		m := NewMsg(MsgID{Tag: tag(uint64(i+1), 1), Body: "churn"})
		c.AppendEncoded(nil, m)
		if c.Len() > 8 {
			t.Fatalf("cache grew to %d entries, bound is 8", c.Len())
		}
	}
}
