package urb

import (
	"slices"

	"anonurb/internal/codec"
	"anonurb/internal/ident"
)

// This file implements the refcount-interned label sets behind
// Config.CompactDelivered (DESIGN.md §10).
//
// Post-GST every correct acker's AΘ view is the same label set, so the
// per-(message, acker) matrices of Algorithm 2 hold thousands of copies
// of one value. The interner stores each distinct set once; compacted
// acker views hold a reference. Interned sets are immutable — every
// mutation path (delta folds, D4 purges, full-set replacement) goes
// copy-on-write through the ackState methods in quiescent.go — so
// sharing is invisible to the algorithm: claims, guards and fingerprints
// read the exact same label values either way.

// setKeyStack is the set size up to which a canonical key is built
// without allocating: the sort scratch and the key bytes both fit on the
// stack. Larger sets spill to the heap and are otherwise treated alike.
const setKeyStack = 16

// appendSetKey appends a label set's canonical identity to b: the sorted
// labels' raw bytes. Insertion order is not part of a view's meaning
// (every consumer is membership- or sorted-order-based), so
// order-insensitive keying is what lets two ackers that learned the same
// view in different orders share one set.
func appendSetKey(b []byte, s *ident.Set) []byte {
	var scratch [setKeyStack]ident.Tag
	tags := append(scratch[:0], s.Slice()...)
	slices.SortFunc(tags, ident.Tag.Compare)
	for _, t := range tags {
		b = codec.AppendTag(b, t)
	}
	return b
}

// setEntry is one interned set plus its reference count.
type setEntry struct {
	key    string
	labels *ident.Set // immutable while interned
	refs   int
}

// setIntern is the per-process intern table. The zero value is ready to
// use.
type setIntern struct {
	m map[string]*setEntry
}

// intern returns the table's entry for s's value, taking one reference.
// A fresh value takes ownership of s (which must not be mutated
// afterwards); an existing value leaves s to the garbage collector.
func (t *setIntern) intern(s *ident.Set) *setEntry {
	if t.m == nil {
		t.m = make(map[string]*setEntry)
	}
	// The key is built on the stack and becomes a string only for a new
	// entry: a hit — every delivery but the first under a stable view —
	// allocates nothing.
	var kb [16 * setKeyStack]byte
	k := appendSetKey(kb[:0], s)
	if e, ok := t.m[string(k)]; ok {
		e.refs++
		return e
	}
	e := &setEntry{key: string(k), labels: s, refs: 1}
	t.m[e.key] = e
	return e
}

// release drops one reference, removing the entry when none remain.
func (t *setIntern) release(e *setEntry) {
	if e == nil {
		return
	}
	e.refs--
	if e.refs == 0 {
		delete(t.m, e.key)
	}
}

// distinct reports the number of interned sets.
func (t *setIntern) distinct() int { return len(t.m) }

// storage reports the label slots the table physically holds (each
// distinct set counted once).
func (t *setIntern) storage() int {
	n := 0
	for _, e := range t.m {
		n += e.labels.Len()
	}
	return n
}
