package ident

import "slices"

// tableIndexMin is the size above which a Table keeps an Index. At or
// below it a lookup scans the keys: sixteen 16-byte tags are four cache
// lines, cheaper to compare than to probe, and a table that never grows
// past it (the label tables of a five-to-seven process cluster) never
// allocates slots. A constant, not a knob: it only has to sit between
// those cluster sizes and the n = 100 benchmark cells, which keep
// indexed lookups.
const tableIndexMin = 16

// Table is an insertion-ordered map from Tag to V. Keys and values live in
// two parallel slices; iteration order is the order of first insertion,
// which keeps runs deterministic (Go map iteration order would not).
// Removal preserves the survivors' relative order. The zero value is an
// empty table.
//
// Pointers returned by At, Ptr and Insert point into the value slice: they
// are valid until the next Insert or RemoveAt.
type Table[V any] struct {
	keys []Tag
	vals []V
	// index locates a key's position; empty (no slots) while
	// len(keys) <= tableIndexMin.
	index Index
}

// keyAt is the index's view of the keys.
func (t *Table[V]) keyAt(i int) Tag { return t.keys[i] }

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.keys) }

// Keys returns the keys in insertion order. The caller must not mutate
// the returned slice.
func (t *Table[V]) Keys() []Tag { return t.keys }

// Grow makes room for n more entries without further allocation, at the
// exact capacity asked for.
func (t *Table[V]) Grow(n int) {
	if need := len(t.keys) + n; need > cap(t.keys) {
		t.keys = append(make([]Tag, 0, need), t.keys...)
		t.vals = append(make([]V, 0, need), t.vals...)
	}
}

// Find returns k's position, -1 if absent.
func (t *Table[V]) Find(k Tag) int {
	if len(t.keys) > tableIndexMin {
		return t.index.Find(k, t.keyAt)
	}
	for i := range t.keys {
		if t.keys[i] == k {
			return i
		}
	}
	return -1
}

// At returns a pointer to the value at position i.
func (t *Table[V]) At(i int) *V { return &t.vals[i] }

// Ptr returns a pointer to k's value, nil if absent.
func (t *Table[V]) Ptr(k Tag) *V {
	if i := t.Find(k); i >= 0 {
		return &t.vals[i]
	}
	return nil
}

// Value returns k's value, the zero V if absent.
func (t *Table[V]) Value(k Tag) V {
	if i := t.Find(k); i >= 0 {
		return t.vals[i]
	}
	var zero V
	return zero
}

// Insert adds k → v unless k is present, and returns a pointer to k's
// value and whether it was added.
func (t *Table[V]) Insert(k Tag, v V) (*V, bool) {
	if i := t.Find(k); i >= 0 {
		return &t.vals[i], false
	}
	i := len(t.keys)
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, v)
	switch {
	case len(t.keys) == tableIndexMin+1:
		t.index.Grow(len(t.keys), t.keyAt)
		for j, key := range t.keys {
			t.index.Insert(key, j, t.keyAt)
		}
	case len(t.keys) > tableIndexMin:
		t.index.Insert(k, i, t.keyAt)
	}
	return &t.vals[i], true
}

// RemoveAt deletes the entry at position i; later entries move down one
// position.
func (t *Table[V]) RemoveAt(i int) {
	switch {
	case len(t.keys) <= tableIndexMin:
	case len(t.keys) == tableIndexMin+1:
		t.index = Index{}
	default:
		t.index.Delete(t.keys[i], i, t.keyAt)
		t.index.CloseGap(i)
	}
	t.keys = slices.Delete(t.keys, i, i+1)
	t.vals = slices.Delete(t.vals, i, i+1)
}

// Remove deletes k; it reports whether k was present.
func (t *Table[V]) Remove(k Tag) bool {
	i := t.Find(k)
	if i < 0 {
		return false
	}
	t.RemoveAt(i)
	return true
}

// Clone returns an independent copy (values are copied shallowly).
func (t *Table[V]) Clone() Table[V] {
	return Table[V]{keys: slices.Clone(t.keys), vals: slices.Clone(t.vals), index: t.index.Clone()}
}
