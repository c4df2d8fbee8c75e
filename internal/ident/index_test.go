package ident

import (
	"slices"
	"testing"
)

// indexOwner is what an Index indexes: a dense key slice, as Table and
// the urb message table keep one.
type indexOwner struct {
	keys []Tag
	x    Index
}

func (o *indexOwner) keyAt(i int) Tag { return o.keys[i] }

// check compares the index with the reference positions: every tag of
// the universe is found where the reference has it (or not at all), All
// yields each indexed position once, and the load stays at most ¾.
func (o *indexOwner) check(t *testing.T, ref map[Tag]int, universe []Tag) {
	t.Helper()
	if o.x.Len() != len(ref) {
		t.Fatalf("Len %d, reference %d", o.x.Len(), len(ref))
	}
	for _, k := range universe {
		want, in := ref[k]
		if !in {
			want = -1
		}
		if got := o.x.Find(k, o.keyAt); got != want {
			t.Fatalf("Find(%v) = %d, reference %d", k, got, want)
		}
	}
	seen := make(map[int]bool, len(ref))
	for p := range o.x.All {
		if seen[p] || p >= len(o.keys) || ref[o.keys[p]] != p {
			t.Fatalf("All yields position %d (seen %v) of %d keys", p, seen[p], len(o.keys))
		}
		seen[p] = true
	}
	if len(seen) != len(ref) {
		t.Fatalf("All yields %d positions, reference holds %d", len(seen), len(ref))
	}
	if 4*o.x.Len() > 3*len(o.x.slots) {
		t.Fatalf("%d entries in %d slots: load above 3/4", o.x.Len(), len(o.x.slots))
	}
}

// fuzzUniverse is the tags FuzzTagIndex draws from: tags sharing Hi (as
// a flow source's do), tags sharing Lo, and tags whose low bits are all
// zero, so the fold must spread every half to the slot bits.
func fuzzUniverse() []Tag {
	var u []Tag
	for i := uint64(1); i <= 32; i++ {
		u = append(u, Tag{Hi: 7, Lo: i}, Tag{Hi: i, Lo: 1 << 40}, Tag{Hi: i << 56, Lo: i << 60})
	}
	return u
}

// FuzzTagIndex drives an Index through insert, find, delete (the owner
// closing the gap), evict-and-refill of one position, presize and clone
// sequences, checked after every op against a Go map.
func FuzzTagIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 3, 1, 2, 0, 9, 3, 4, 4, 40, 5, 0})
	f.Add([]byte{0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0, 16, 3, 1, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{4, 200, 0, 40, 0, 41, 0, 72, 0, 73, 1, 41, 5, 0, 2, 1, 3, 2, 0, 90})
	universe := fuzzUniverse()
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &indexOwner{}
		ref := map[Tag]int{}
		for ; len(data) >= 2; data = data[2:] {
			arg := int(data[1])
			k := universe[arg%len(universe)]
			switch data[0] % 6 {
			case 0: // insert
				if _, in := ref[k]; in {
					break
				}
				o.keys = append(o.keys, k)
				o.x.Insert(k, len(o.keys)-1, o.keyAt)
				ref[k] = len(o.keys) - 1
			case 1: // find only: check does it
			case 2: // delete a member, and the owner closes the gap
				if len(o.keys) == 0 {
					break
				}
				p := arg % len(o.keys)
				o.x.Delete(o.keys[p], p, o.keyAt)
				o.x.CloseGap(p)
				delete(ref, o.keys[p])
				o.keys = slices.Delete(o.keys, p, p+1)
				for key, q := range ref {
					if q > p {
						ref[key] = q - 1
					}
				}
			case 3: // evict a member and refill its position with k, as the ring does
				if len(o.keys) == 0 {
					break
				}
				p := len(o.keys) - 1 - arg%len(o.keys)
				if q, in := ref[k]; in && q != p {
					break
				}
				o.x.Delete(o.keys[p], p, o.keyAt)
				delete(ref, o.keys[p])
				o.keys[p] = k
				o.x.Insert(k, p, o.keyAt)
				ref[k] = p
			case 4: // presize
				o.x.Grow(arg%64, o.keyAt)
			case 5: // continue on a clone; the original must not change
				c := &indexOwner{keys: slices.Clone(o.keys), x: o.x.Clone()}
				before := slices.Clone(o.x.slots)
				c.check(t, ref, universe)
				for key := range ref {
					c.x.Delete(key, ref[key], c.keyAt)
					break
				}
				if !slices.Equal(o.x.slots, before) {
					t.Fatal("a change to a clone reached its original")
				}
			}
			o.check(t, ref, universe)
		}
	})
}

// TestIndexBytesPerEntry pins the slot memory: at most 16 bytes per
// indexed entry at every size, growing by inserts alone.
func TestIndexBytesPerEntry(t *testing.T) {
	o := &indexOwner{}
	for n := 1; n <= 5000; n++ {
		k := Tag{Hi: uint64(n) * 0x2545f4914f6cdd1d, Lo: uint64(n)}
		o.keys = append(o.keys, k)
		o.x.Insert(k, n-1, o.keyAt)
		if got := o.x.Bytes(); got > 16*n {
			t.Fatalf("%d entries hold %d slot bytes, %.1f per entry; the bound is 16", n, got, float64(got)/float64(n))
		}
	}
}

// TestIndexLayoutDeterministic: the layout is a pure function of the
// operations — two indexes fed the same inserts and deletes hold the
// same slots (two Go maps fed the same inserts iterate in different
// orders: each map draws its own hash seed).
func TestIndexLayoutDeterministic(t *testing.T) {
	build := func() *indexOwner {
		o := &indexOwner{}
		for i := uint64(1); i <= 300; i++ {
			k := Tag{Hi: 7, Lo: i * 0x9e3779b97f4a7c15}
			o.keys = append(o.keys, k)
			o.x.Insert(k, len(o.keys)-1, o.keyAt)
		}
		for p := 0; p < 300; p += 3 {
			o.x.Delete(o.keys[p], p, o.keyAt)
		}
		return o
	}
	a, b := build(), build()
	if !slices.Equal(a.x.slots, b.x.slots) {
		t.Fatal("the same operations left different layouts")
	}
	if got, want := slices.Collect(a.x.All), slices.Collect(b.x.All); !slices.Equal(got, want) || len(got) != 200 {
		t.Fatalf("All orders differ or miss entries: %d vs %d positions", len(got), len(want))
	}
}
