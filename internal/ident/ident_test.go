package ident

import (
	"fmt"
	"testing"
	"testing/quick"

	"anonurb/internal/xrand"
)

func TestSourceNeverZero(t *testing.T) {
	s := NewSource(xrand.New(1))
	for i := 0; i < 100000; i++ {
		if s.Next().Zero() {
			t.Fatal("Source produced the reserved zero tag")
		}
	}
}

func TestSourceDeterministic(t *testing.T) {
	a := NewSource(xrand.New(5))
	b := NewSource(xrand.New(5))
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSourceUniqueAtScale(t *testing.T) {
	s := NewSource(xrand.New(7))
	r := NewRegistry()
	for i := 0; i < 200000; i++ {
		if !r.Record(s.Next(), "p") {
			t.Fatalf("collision after %d draws", i)
		}
	}
	if r.Collisions() != 0 {
		t.Fatalf("registry recorded %d collisions", r.Collisions())
	}
	if r.Count() != 200000 {
		t.Fatalf("registry count %d", r.Count())
	}
}

func TestRegistryDetectsCollision(t *testing.T) {
	r := NewRegistry()
	tg := Tag{Hi: 1, Lo: 2}
	if !r.Record(tg, "a") {
		t.Fatal("first record must succeed")
	}
	if r.Record(tg, "b") {
		t.Fatal("second record of same tag must fail")
	}
	if r.Collisions() != 1 {
		t.Fatalf("collisions = %d, want 1", r.Collisions())
	}
	owner, ok := r.Owner(tg)
	if !ok || owner != "a" {
		t.Fatalf("owner = %q, %v", owner, ok)
	}
}

func TestTagOrdering(t *testing.T) {
	a := Tag{Hi: 1, Lo: 5}
	b := Tag{Hi: 1, Lo: 9}
	c := Tag{Hi: 2, Lo: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("ordering broken")
	}
	if b.Less(a) || c.Less(a) {
		t.Fatal("ordering not antisymmetric")
	}
	if a.Compare(a) != 0 || a.Compare(b) != -1 || c.Compare(a) != 1 {
		t.Fatal("Compare inconsistent")
	}
}

func TestTagCompareQuick(t *testing.T) {
	f := func(h1, l1, h2, l2 uint64) bool {
		a := Tag{Hi: h1, Lo: l1}
		b := Tag{Hi: h2, Lo: l2}
		// Exactly one of <, =, > holds, and Compare agrees with Less.
		switch a.Compare(b) {
		case -1:
			return a.Less(b) && !b.Less(a) && a != b
		case 0:
			return a == b && !a.Less(b) && !b.Less(a)
		case 1:
			return b.Less(a) && !a.Less(b) && a != b
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagString(t *testing.T) {
	if (Tag{}).String() != "0000000000000000" {
		t.Fatalf("zero tag string %q", Tag{}.String())
	}
	a := Tag{Hi: 0xdeadbeef, Lo: 0x1234}
	if a.String() != "deadbeef00001234" {
		t.Fatalf("tag string %q", a.String())
	}
}

// TestTagStringMatchesFmt pins the hand-written rendering to the fmt form
// it replaced, %08x%08x of the low 32 bits of each half, and Rendered's
// order to the order of the strings.
func TestTagStringMatchesFmt(t *testing.T) {
	rng := xrand.New(3)
	prev := Tag{}
	for i := 0; i < 10000; i++ {
		tg := Tag{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if i%4 == 0 {
			tg.Hi &= 0xf0f0 // short values: leading zeros
		}
		want := fmt.Sprintf("%08x%08x", tg.Hi&0xffffffff, tg.Lo&0xffffffff)
		if got := tg.String(); got != want {
			t.Fatalf("%#v renders %q, want %q", tg, got, want)
		}
		if got := string(tg.AppendHex([]byte("x"))); got != "x"+want {
			t.Fatalf("AppendHex = %q, want %q", got, "x"+want)
		}
		if (prev.Rendered() < tg.Rendered()) != (prev.String() < want) {
			t.Fatalf("Rendered orders %v, %v unlike their strings", prev, tg)
		}
		prev = tg
	}
}

func TestSetAddRemoveHas(t *testing.T) {
	s := NewSet()
	a, b, c := Tag{Hi: 1}, Tag{Hi: 2}, Tag{Hi: 3}
	if !s.Add(a) || !s.Add(b) || !s.Add(c) {
		t.Fatal("adds must succeed")
	}
	if s.Add(a) {
		t.Fatal("duplicate add must report false")
	}
	if s.Len() != 3 || !s.Has(b) {
		t.Fatal("membership broken")
	}
	if !s.Remove(b) {
		t.Fatal("remove must succeed")
	}
	if s.Remove(b) {
		t.Fatal("double remove must fail")
	}
	if s.Has(b) || s.Len() != 2 {
		t.Fatal("remove did not take effect")
	}
}

func TestSetInsertionOrderPreserved(t *testing.T) {
	s := NewSet()
	tags := []Tag{{Hi: 9}, {Hi: 3}, {Hi: 7}, {Hi: 1}}
	for _, tg := range tags {
		s.Add(tg)
	}
	got := s.Slice()
	for i, tg := range tags {
		if got[i] != tg {
			t.Fatalf("order[%d] = %v, want %v", i, got[i], tg)
		}
	}
	// Removal keeps relative order of survivors.
	s.Remove(Tag{Hi: 3})
	want := []Tag{{Hi: 9}, {Hi: 7}, {Hi: 1}}
	got = s.Slice()
	if len(got) != len(want) {
		t.Fatalf("len %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after remove, order[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Index map stays consistent after compaction.
	if !s.Has(Tag{Hi: 1}) || s.Has(Tag{Hi: 3}) {
		t.Fatal("index inconsistent after removal")
	}
}

func TestSetCloneIndependent(t *testing.T) {
	s := NewSet(Tag{Hi: 1}, Tag{Hi: 2})
	c := s.Clone()
	c.Add(Tag{Hi: 3})
	c.Remove(Tag{Hi: 1})
	if s.Len() != 2 || !s.Has(Tag{Hi: 1}) || s.Has(Tag{Hi: 3}) {
		t.Fatal("clone mutated original")
	}
}

func TestSetEqualAndSubset(t *testing.T) {
	a := NewSet(Tag{Hi: 1}, Tag{Hi: 2})
	b := NewSet(Tag{Hi: 2}, Tag{Hi: 1}) // different insertion order
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal must ignore order")
	}
	c := NewSet(Tag{Hi: 1})
	if !c.SubsetOf(a) {
		t.Fatal("c ⊆ a")
	}
	if a.SubsetOf(c) {
		t.Fatal("a ⊄ c")
	}
	if a.Equal(c) {
		t.Fatal("different sizes cannot be equal")
	}
}

func TestSetDuplicateSeed(t *testing.T) {
	s := NewSet(Tag{Hi: 1}, Tag{Hi: 1}, Tag{Hi: 1})
	if s.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Len())
	}
}

func TestSetPropertyAddRemove(t *testing.T) {
	// Property: after any sequence of adds/removes, Len equals the size of
	// a reference map and membership agrees.
	f := func(ops []uint8) bool {
		s := NewSet()
		ref := make(map[Tag]bool)
		for _, op := range ops {
			tg := Tag{Hi: uint64(op % 16), Lo: 1}
			if op&0x80 == 0 {
				s.Add(tg)
				ref[tg] = true
			} else {
				s.Remove(tg)
				delete(ref, tg)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for tg := range ref {
			if !s.Has(tg) {
				return false
			}
		}
		for _, tg := range s.Slice() {
			if !ref[tg] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowSourcePinsHi(t *testing.T) {
	s := NewFlowSource(0xF1, xrand.New(4))
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		tag := s.Next()
		if tag.Hi != 0xF1 {
			t.Fatalf("draw %d: Hi %#x, want pinned 0xF1", i, tag.Hi)
		}
		if seen[tag.Lo] {
			t.Fatalf("draw %d: Lo %#x repeated", i, tag.Lo)
		}
		seen[tag.Lo] = true
	}
	if s.Flow() != 0xF1 {
		t.Fatalf("Flow() = %#x, want 0xF1", s.Flow())
	}
	if NewSource(xrand.New(4)).Flow() != 0 {
		t.Fatal("unpinned source reports a flow")
	}
}

func TestFlowSourceRejectsZeroFlow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("flow 0 accepted; it is the always-admitted beat lane")
		}
	}()
	NewFlowSource(0, xrand.New(1))
}

func TestFlowSourceSkipToResync(t *testing.T) {
	a := NewFlowSource(0x77, xrand.New(9))
	for i := 0; i < 5; i++ {
		a.Next()
	}
	b := NewFlowSource(0x77, xrand.New(9))
	if err := b.SkipTo(a.Draws()); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Next(), a.Next(); got != want {
		t.Fatalf("resynced source diverged: %v vs %v", got, want)
	}
}
