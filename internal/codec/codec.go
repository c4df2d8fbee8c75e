// Package codec is the one kit every binary format of this module is
// read through: the wire frames (internal/wire), the durable state
// snapshots and write-ahead records (internal/urb), and the store's
// snapshot container and WAL file framing (internal/store). Each format
// keeps its own layout and its own errors; what they share lives here,
// once: a bounds-checked big-endian cursor, the 16-byte form of a tag,
// and the CRC-32C checksum.
//
// Every byte these formats read arrives from a fair lossy channel or a
// disk that can tear a write, so a reader must reject whatever it cannot
// accept, loudly and without over-reading or over-allocating; Reader is
// that discipline written once.
package codec

import (
	"encoding/binary"
	"hash/crc32"

	"anonurb/internal/ident"
)

// TagLen is the encoded size of a tag: Hi then Lo, big endian.
const TagLen = 16

// AppendTag appends t's canonical 16 big-endian bytes to b.
func AppendTag(b []byte, t ident.Tag) []byte {
	b = binary.BigEndian.AppendUint64(b, t.Hi)
	return binary.BigEndian.AppendUint64(b, t.Lo)
}

// AppendTags appends a tag list: a u32 count, then each tag.
func AppendTags(b []byte, ts []ident.Tag) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = AppendTag(b, t)
	}
	return b
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C (Castagnoli) of b: the one checksum of the
// durability path, guarding snapshot transfer chunks on the wire and the
// store's WAL records and snapshot container on disk.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Reader is a cursor over one encoded value. Reads are big endian and
// bounds-checked; the first failure sticks: it is what Err reports, the
// rest of the input is dropped, and every later read returns zero. A
// caller may therefore read a run of fields and check Err once, where
// its format's rules care only that the run is whole.
//
// A Reader is a plain value, meant to live on its caller's stack: the
// wire decoder reads every frame through one, without allocating. Two
// choices keep it cheap there: it names errors by the variable that
// holds them (a *error) rather than holding error values, and it moves
// an offset rather than reslicing. With two interface fields a MSG
// decode took about twice as long; reslicing cost a tenth more.
type Reader struct {
	b          []byte
	off        int
	err, short *error
}

// NewReader returns a Reader over b that fails with *short when the
// input runs out: each format names its own truncation error.
func NewReader(b []byte, short *error) Reader { return Reader{b: b, short: short} }

// Err reports the first failure, or nil.
func (r *Reader) Err() error {
	if r.err == nil {
		return nil
	}
	return *r.err
}

// Fail records *err as the reader's failure unless one is already
// recorded, and drops the rest of the input.
func (r *Reader) Fail(err *error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Rest returns the unread bytes (none after a failure).
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.b[r.off:]
	if len(p) < 1 {
		r.Fail(r.short)
		return 0
	}
	r.off++
	return p[0]
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.b[r.off:]
	if len(p) < 4 {
		r.Fail(r.short)
		return 0
	}
	r.off += 4
	return binary.BigEndian.Uint32(p)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.b[r.off:]
	if len(p) < 8 {
		r.Fail(r.short)
		return 0
	}
	r.off += 8
	return binary.BigEndian.Uint64(p)
}

// Tag reads a tag's 16 bytes.
func (r *Reader) Tag() ident.Tag {
	p := r.b[r.off:]
	if len(p) < TagLen {
		r.Fail(r.short)
		return ident.Tag{}
	}
	r.off += TagLen
	return tagAt(p)
}

func tagAt(p []byte) ident.Tag {
	return ident.Tag{Hi: binary.BigEndian.Uint64(p), Lo: binary.BigEndian.Uint64(p[8:])}
}

// Bytes reads n bytes and returns them without copying: the result
// borrows the input, its capacity clipped so an append onto it cannot
// reach the bytes behind it. Zero bytes read as nil.
func (r *Reader) Bytes(n int) []byte {
	p := r.b[r.off:]
	if n == 0 {
		return nil
	}
	if n < 0 || len(p) < n {
		r.Fail(r.short)
		return nil
	}
	r.off += n
	return p[:n:n]
}

// Skip steps over n bytes.
func (r *Reader) Skip(n int) {
	if n < 0 || r.Len() < n {
		r.Fail(r.short)
		return
	}
	r.off += n
}

// Count reads a u32 element count and bounds it before anything is
// allocated for it: a count above max fails with *over (which may be
// nil only when max is math.MaxUint32), and a count whose elements,
// each at least min bytes, cannot fit in the unread input fails as
// short. A failed count reads as zero. It has one failure site so that
// it is small enough to inline into a decoder.
func (r *Reader) Count(min int, max uint32, over *error) int {
	fail := r.short
	if p := r.b[r.off:]; len(p) >= 4 {
		n := binary.BigEndian.Uint32(p)
		if n <= max && uint64(n)*uint64(min) <= uint64(len(p)-4) {
			r.off += 4
			return int(n)
		}
		if n > max {
			fail = over
		}
	}
	r.Fail(fail)
	return 0
}

// Tags reads a tag list (a count bounded as Count does, then the tags)
// into a fresh slice; an empty list reads as nil.
func (r *Reader) Tags(max uint32, over *error) []ident.Tag {
	return TagsOf(r.Bytes(r.Count(TagLen, max, over) * TagLen))
}

// TagsOf decodes a run of packed tags into a fresh slice, nil if p is
// empty. Reader.Tags is TagsOf over a list's bytes; the wire decoder
// spells that out, because Tags is too large to inline and the call
// costs a label-free ACK about a tenth of its decode. (Inlined there,
// its allocation is on DecodeInto's line of the hot-path escape
// baseline.)
func TagsOf(p []byte) []ident.Tag {
	if len(p) == 0 {
		return nil
	}
	ts := make([]ident.Tag, len(p)/TagLen)
	for i := range ts {
		ts[i] = tagAt(p[i*TagLen:])
	}
	return ts
}

// Done ends a value that must fill its input exactly: it reports the
// first failure, or trailing if bytes are left unread.
func (r *Reader) Done(trailing error) error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Len() != 0 {
		return trailing
	}
	return nil
}
