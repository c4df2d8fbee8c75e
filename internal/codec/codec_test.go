package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"anonurb/internal/ident"
)

var (
	errShort = errors.New("short")
	errOver  = errors.New("over")
	errOther = errors.New("other")
)

// TestReaderRoundTrip reads back what the appenders and binary.BigEndian
// write, and ends exactly at the end of the input.
func TestReaderRoundTrip(t *testing.T) {
	tag := ident.Tag{Hi: 0x0102030405060708, Lo: 0x1112131415161718}
	tags := []ident.Tag{tag, {Hi: 1, Lo: 2}}
	b := []byte{7, 0, 0, 0, 3, 'a', 'b', 'c'}
	b = AppendTag(b, tag)
	b = AppendTags(b, tags)
	b = AppendTags(b, nil)

	r := NewReader(b, &errShort)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if body := r.Bytes(r.Count(1, 3, &errOver)); string(body) != "abc" || cap(body) != 3 {
		t.Fatalf("Bytes = %q (cap %d), want \"abc\" with its capacity clipped", body, cap(body))
	}
	if got := r.Tag(); got != tag {
		t.Fatalf("Tag = %v, want %v", got, tag)
	}
	if got := r.Tags(2, &errOver); len(got) != 2 || got[0] != tags[0] || got[1] != tags[1] {
		t.Fatalf("Tags = %v, want %v", got, tags)
	}
	if got := r.Tags(2, &errOver); got != nil {
		t.Fatalf("empty Tags = %v, want nil", got)
	}
	if err := r.Done(errOther); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// TestReaderFailures: each failure names the format's error, the first
// one sticks, and a failed reader reads zeros from an empty rest.
func TestReaderFailures(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want error
	}{
		{"u8 of nothing", nil, func(r *Reader) { r.U8() }, errShort},
		{"u32 of three bytes", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, errShort},
		{"u64 of seven bytes", make([]byte, 7), func(r *Reader) { r.U64() }, errShort},
		{"tag of fifteen bytes", make([]byte, 15), func(r *Reader) { r.Tag() }, errShort},
		{"bytes past the end", []byte{1}, func(r *Reader) { r.Bytes(2) }, errShort},
		{"negative bytes", []byte{1}, func(r *Reader) { r.Bytes(-1) }, errShort},
		{"skip past the end", []byte{1}, func(r *Reader) { r.Skip(2) }, errShort},
		{"count above max", []byte{0, 0, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1}, func(r *Reader) { r.Count(1, 8, &errOver) }, errOver},
		{"count above max before short", []byte{0, 0, 0, 9}, func(r *Reader) { r.Count(1, 8, &errOver) }, errOver},
		{"count past the bytes left", []byte{0, 0, 0, 2, 0, 0, 0}, func(r *Reader) { r.Count(2, math.MaxUint32, nil) }, errShort},
		{"first failure sticks", []byte{0, 0, 0, 9}, func(r *Reader) {
			r.Fail(&errOther)
			r.U64()
			r.Count(1, 0, &errOver)
		}, errOther},
		{"short sticks over a later failure", nil, func(r *Reader) {
			r.U8()
			r.Fail(&errOther)
		}, errShort},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(tt.in, &errShort)
			tt.read(&r)
			if err := r.Err(); err != tt.want {
				t.Fatalf("Err = %v, want %v", err, tt.want)
			}
			if err := r.Done(errOther); err != tt.want {
				t.Fatalf("Done = %v, want %v", err, tt.want)
			}
			if r.Len() != 0 || len(r.Rest()) != 0 || r.U32() != 0 || r.Tag() != (ident.Tag{}) {
				t.Fatal("a failed reader still reads input")
			}
		})
	}
}

// TestReaderDoneTrailing: a value that does not fill its input is
// rejected with the format's trailing error.
func TestReaderDoneTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2}, &errShort)
	r.U8()
	if err := r.Done(errOther); err != errOther {
		t.Fatalf("Done = %v, want the trailing error", err)
	}
	if rest := r.Rest(); !bytes.Equal(rest, []byte{2}) {
		t.Fatalf("Rest = %v, want [2]", rest)
	}
}

// TestChecksumIsCastagnoli pins the polynomial: the CRC-32C check value
// of "123456789".
func TestChecksumIsCastagnoli(t *testing.T) {
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("Checksum = %#x, want 0xe3069283", got)
	}
}
