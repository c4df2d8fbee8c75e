package wire

// Batch framing: a batch frame is nothing but the concatenation of
// canonical single-message encodings — there is no extra header, length
// prefix or checksum, so batching adds exactly zero bytes of overhead to
// the wire and any batch frame decodes with DecodePrefix one message at
// a time. EncodeBatch/DecodeBatch are the packing helpers the node
// runtime and the benchmarks use; a host encodes every message afresh,
// a Task-1 retransmission included (see EncodeCache).

import (
	"sync/atomic"

	"anonurb/internal/ident"
)

// DefaultEncodeCacheSize is the entry bound EncodeCache uses when built
// with a non-positive capacity. Entries are one encoded MSG frame each
// (tens of bytes for typical payloads), and a cache only grows to it as
// distinct messages are sent, so the default is cheap.
const DefaultEncodeCacheSize = 1024

// EncodeBatch packs the canonical encodings of msgs into as few
// concatenated batch frames as possible, none exceeding budget bytes
// (budget <= 0 means no bound: everything lands in one frame). Messages
// are packed greedily in order; a message whose encoding alone exceeds
// the budget is emitted as its own (oversized) frame — the caller
// decides whether its transport can carry it, exactly as for a single
// encoded message today.
func EncodeBatch(msgs []Message, budget int) [][]byte {
	if len(msgs) == 0 {
		return nil
	}
	var frames [][]byte
	var cur []byte
	for _, m := range msgs {
		if SplitsBatch(len(cur), m.EncodedSize(), budget) {
			frames = append(frames, cur)
			cur = nil
		}
		cur = m.Encode(cur)
	}
	if len(cur) > 0 {
		frames = append(frames, cur)
	}
	return frames
}

// SplitsBatch is the greedy packing rule shared by EncodeBatch and
// batching senders (the node runtime): appending a message of size
// encoded bytes (its EncodedSize) to a batch frame currently curLen
// bytes long must start a new frame iff the frame is non-empty and would
// exceed budget (<= 0: no bound). A message whose encoding alone exceeds
// the budget therefore still travels, alone.
func SplitsBatch(curLen, size, budget int) bool {
	return budget > 0 && curLen > 0 && curLen+size > budget
}

// DecodeBatch parses a batch frame — one or more concatenated canonical
// message encodings — into its messages. It is strict: an empty frame,
// a corrupt message anywhere in the stream, or trailing garbage rejects
// the whole batch (receivers that want the valid prefix of a damaged
// frame use DecodePrefix directly, as the node runtime does).
func DecodeBatch(frame []byte) ([]Message, error) {
	if len(frame) == 0 {
		return nil, ErrShort
	}
	var msgs []Message
	rest := frame
	for len(rest) > 0 {
		m, next, err := DecodePrefix(rest)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
		rest = next
	}
	return msgs, nil
}

// EncodeCache memoises canonical MSG encodings by tag. No host uses it
// (DESIGN.md §3): a hit copies the bytes Message.Encode writes, after an
// index probe and a body compare, so it saves nothing. Its one caller is
// the benchmark's wire replay (benchmark/layers.go). ACK frames carry
// the acker's current label view and BEAT frames are two tags — neither
// is cached.
//
// Delta ACKs (KindAckDelta) are position-dependent — the same identity
// encodes differently at every epoch — so, like full labeled ACKs, they
// are never cached.
//
// A tag is 128 random bits, so it alone keys the cache; a hit still
// checks the body against the one the cached bytes carry. A second body
// under a cached tag (a corrupted copy, a real collision) is encoded
// afresh and not cached: each message gets its own bytes, never the
// other's.
//
// The entries are a FIFO ring of {tag, encoding} located through an
// ident.Index (DESIGN.md §10, "Keyed by tag"). The ring grows with the
// content, one entry per distinct message sent, up to capacity; from
// then on a new entry takes the oldest one's place (retired messages age
// out on their own). It is not safe for concurrent use — every node owns
// its own cache — except for Stats, whose counters are atomic so
// monitors may poll them while the owner encodes.
type EncodeCache struct {
	capacity int
	// ring holds the entries; once it is full, head is the oldest. The
	// body is compared in place against the encoding's body bytes, so a
	// cache hit — the per-tick steady-state path — allocates nothing.
	ring  []cacheEntry
	head  int
	index ident.Index

	hits, misses atomic.Uint64
}

// cacheEntry is one cached MSG encoding under its tag.
type cacheEntry struct {
	tag ident.Tag
	enc []byte
}

// NewEncodeCache builds a cache bounded to capacity entries
// (DefaultEncodeCacheSize if capacity <= 0).
func NewEncodeCache(capacity int) *EncodeCache {
	if capacity <= 0 {
		capacity = DefaultEncodeCacheSize
	}
	return &EncodeCache{capacity: capacity}
}

// tagAt is the index's view of the ring.
func (c *EncodeCache) tagAt(i int) ident.Tag { return c.ring[i].tag }

// AppendEncoded appends m's canonical encoding to dst and returns the
// extended slice, serving MSG encodings from the cache when possible.
// The cached bytes are copied into dst; the cache never aliases caller
// memory.
func (c *EncodeCache) AppendEncoded(dst []byte, m Message) []byte {
	if m.Kind != KindMsg {
		return m.Encode(dst)
	}
	i := c.index.Find(m.Tag, c.tagAt)
	if i >= 0 && string(msgBody(c.ring[i].enc)) == string(m.Body) {
		c.hits.Add(1)
		return append(dst, c.ring[i].enc...)
	}
	c.misses.Add(1)
	if i >= 0 {
		return m.Encode(dst) // another body holds the tag's entry
	}
	e := cacheEntry{tag: m.Tag, enc: m.Encode(make([]byte, 0, m.EncodedSize()))}
	if len(c.ring) < c.capacity {
		c.ring = append(c.ring, e)
		c.index.Insert(e.tag, len(c.ring)-1, c.tagAt)
	} else {
		c.index.Delete(c.ring[c.head].tag, c.head, c.tagAt)
		c.ring[c.head] = e
		c.index.Insert(e.tag, c.head, c.tagAt)
		c.head = (c.head + 1) % c.capacity
	}
	return append(dst, e.enc...)
}

// msgBody returns the body bytes of a canonical MSG encoding: what
// follows the header and the body length, up to the trailing tag.
func msgBody(enc []byte) []byte { return enc[headerLen+4 : len(enc)-tagLen] }

// Len reports the number of cached encodings.
func (c *EncodeCache) Len() int { return len(c.ring) }

// Stats reports (cache hits, cache misses) so far. Safe to call
// concurrently with the owner's AppendEncoded.
func (c *EncodeCache) Stats() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }
