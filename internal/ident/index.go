package ident

import (
	"math/bits"
	"slices"
)

// indexMinSlots is the slot count of an index's first allocation. Small
// enough that one entry costs at most four slots (16 bytes), the bound
// the whole index keeps at every size.
const indexMinSlots = 4

// Index is an open-addressed hash index from a Tag to a position in a
// slice its owner keeps: the one tag-keyed lookup structure behind
// Table and the urb message table (DESIGN.md §10, "Keyed by tag"). A
// slot holds a position plus one, 0 marking it empty, so a slot is four
// bytes and no key is stored twice: a probe asks the owner for the tag
// at a candidate position (keyAt), which the owner's hit reads anyway.
// Positions must stay below 2^32-1.
//
// A tag is 128 random bits, so it is its own hash: the home slot is a
// fixed multiply-fold of both halves (slotHash), with no per-process
// seed. The layout is therefore a pure function of the operations
// applied — the same inserts and deletes, in the same order, leave the
// same slots on every run — and flow tags (NewFlowSource), which pin
// Hi, still spread over every slot through Lo.
//
// Linear probing at a load of at most ¾, power-of-two growth, and
// backward-shift deletion (no tombstones): a probe ends at the first
// empty slot, and deleting never slows later probes.
//
// Threat model: tags come from honest processes in the crash-fault
// model, where they are uniformly random. A sender crafting tags that
// fold to one slot would make probes linear in the table's size; such
// a Byzantine sender is outside the model this repository implements.
//
// The zero value is an empty index. An Index is not safe for concurrent
// use.
type Index struct {
	slots []uint32
	n     int
	// shift turns a 64-bit slotHash into a slot: 64 - log2(len(slots)).
	shift uint
}

// slotHash folds both halves of k into 64 bits whose top bits pick the
// home slot. For a fixed Hi, Lo ↦ hash is a bijection (an xor with a
// constant, then a multiply by an odd constant), and the multiply
// carries every bit of Lo into the top bits.
func slotHash(k Tag) uint64 {
	return (k.Hi*0x9e3779b97f4a7c15 ^ k.Lo) * 0xbf58476d1ce4e5b9
}

func (x *Index) home(k Tag) int { return int(slotHash(k) >> x.shift) }

// Len returns the number of indexed positions.
func (x *Index) Len() int { return x.n }

// Bytes returns the memory the slots hold.
func (x *Index) Bytes() int { return 4 * cap(x.slots) }

// Find returns the position whose tag is k, -1 if none is indexed.
// keyAt(p) must return the tag at every indexed position p.
func (x *Index) Find(k Tag, keyAt func(int) Tag) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return -1
		}
		if keyAt(int(v-1)) == k {
			return int(v - 1)
		}
	}
}

// Insert indexes position pos under k, which the index must not hold
// yet. keyAt covers the positions already indexed (a growth rehashes
// them).
func (x *Index) Insert(k Tag, pos int, keyAt func(int) Tag) {
	if x.n+1 > len(x.slots)*3/4 {
		x.resize(x.n+1, keyAt)
	}
	x.place(k, uint32(pos)+1)
	x.n++
}

// Grow makes room for n more positions without a further rehash: the
// presize of a table about to be filled.
func (x *Index) Grow(n int, keyAt func(int) Tag) {
	if x.n+n > len(x.slots)*3/4 {
		x.resize(x.n+n, keyAt)
	}
}

// Delete removes position pos, indexed under k, and shifts the entries
// behind it back so that no probe chain is broken.
func (x *Index) Delete(k Tag, pos int, keyAt func(int) Tag) {
	mask := len(x.slots) - 1
	v := uint32(pos) + 1
	i := x.home(k)
	for x.slots[i] != v {
		if x.slots[i] == 0 {
			panic("ident: Index.Delete of a position not indexed under its tag")
		}
		i = (i + 1) & mask
	}
	// The hole at i may take any later entry of the run whose home does
	// not lie cyclically in (i, j].
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if h := x.home(keyAt(int(x.slots[j] - 1))); (j-h)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	x.n--
}

// CloseGap renumbers the index after its owner deleted position pos
// from its slice: every position above pos moves down by one. pos
// itself must no longer be indexed.
func (x *Index) CloseGap(pos int) {
	v := uint32(pos) + 1
	for i, s := range x.slots {
		if s > v {
			x.slots[i] = s - 1
		}
	}
}

// All yields the indexed positions in slot order: the layout, which
// checkers walk and which is the same for the same operations.
func (x *Index) All(yield func(int) bool) {
	for _, v := range x.slots {
		if v != 0 && !yield(int(v-1)) {
			return
		}
	}
}

// Clone returns an independent copy.
func (x *Index) Clone() Index {
	return Index{slots: slices.Clone(x.slots), n: x.n, shift: x.shift}
}

// resize rehashes into the smallest power-of-two slot count that holds
// need entries at a load of at most ¾. Old slots are taken in slot
// order, which keeps the new layout a function of the old one.
func (x *Index) resize(need int, keyAt func(int) Tag) {
	size := indexMinSlots
	for need > size*3/4 {
		size *= 2
	}
	old := x.slots
	x.slots = make([]uint32, size)
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, v := range old {
		if v != 0 {
			x.place(keyAt(int(v-1)), v)
		}
	}
}

// place puts slot value v in the first empty slot of k's run.
func (x *Index) place(k Tag, v uint32) {
	mask := len(x.slots) - 1
	i := x.home(k)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = v
}
