package ident

import (
	"slices"
	"testing"

	"anonurb/internal/xrand"
)

// refTable is the plain reference the model test compares against: a map
// plus the insertion-order slice, the pair Table replaced.
type refTable struct {
	order []Tag
	vals  map[Tag]int
}

func (r *refTable) insert(k Tag, v int) bool {
	if _, ok := r.vals[k]; ok {
		return false
	}
	r.vals[k] = v
	r.order = append(r.order, k)
	return true
}

func (r *refTable) remove(k Tag) bool {
	if _, ok := r.vals[k]; !ok {
		return false
	}
	delete(r.vals, k)
	r.order = slices.DeleteFunc(r.order, func(t Tag) bool { return t == k })
	return true
}

func (r *refTable) clone() *refTable {
	c := &refTable{order: slices.Clone(r.order), vals: make(map[Tag]int, len(r.vals))}
	for k, v := range r.vals {
		c.vals[k] = v
	}
	return c
}

func (r *refTable) subsetOf(o *refTable) bool {
	for k := range r.vals {
		if _, ok := o.vals[k]; !ok {
			return false
		}
	}
	return true
}

// model is a Set, a Table[int] and their reference, driven in lockstep.
type model struct {
	set *Set
	tab Table[int]
	ref *refTable
}

func newModel() *model {
	return &model{set: NewSet(), ref: &refTable{vals: map[Tag]int{}}}
}

func (m *model) clone() *model {
	return &model{set: m.set.Clone(), tab: m.tab.Clone(), ref: m.ref.clone()}
}

// check compares every observable of the Set and the Table with the
// reference: size, insertion order, membership of members and of the
// universe's non-members, values, and the index's presence on the right
// side of the threshold.
func (m *model) check(t *testing.T, universe []Tag) {
	t.Helper()
	if m.set.Len() != len(m.ref.order) || m.tab.Len() != len(m.ref.order) {
		t.Fatalf("Len: set %d, table %d, reference %d", m.set.Len(), m.tab.Len(), len(m.ref.order))
	}
	if !slices.Equal(m.set.Slice(), m.ref.order) || !slices.Equal(m.tab.Keys(), m.ref.order) {
		t.Fatalf("insertion order: set %v, table %v, reference %v", m.set.Slice(), m.tab.Keys(), m.ref.order)
	}
	for _, k := range universe {
		want, in := m.ref.vals[k]
		if m.set.Has(k) != in {
			t.Fatalf("Has(%v) = %v, reference %v", k, !in, in)
		}
		if got := m.tab.Value(k); got != want {
			t.Fatalf("Value(%v) = %d, reference %d", k, got, want)
		}
		p := m.tab.Ptr(k)
		if (p != nil) != in || (in && *p != want) {
			t.Fatalf("Ptr(%v) = %v, reference (%d, %v)", k, p, want, in)
		}
		if i := m.tab.Find(k); in && (i != slices.Index(m.ref.order, k) || *m.tab.At(i) != want) {
			t.Fatalf("Find(%v) = %d, reference position %d", k, i, slices.Index(m.ref.order, k))
		} else if !in && i != -1 {
			t.Fatalf("Find(%v) = %d for a non-member", k, i)
		}
	}
	for name, index := range map[string]Index{"set": m.set.t.index, "table": m.tab.index} {
		if (index.slots != nil) != (len(m.ref.order) > tableIndexMin) {
			t.Fatalf("%s with %d entries: index present = %v", name, len(m.ref.order), index.slots != nil)
		}
		if index.slots != nil && index.Len() != len(m.ref.order) {
			t.Fatalf("%s index holds %d keys for %d entries", name, index.Len(), len(m.ref.order))
		}
	}
}

// TestTableModel drives a Set and a Table through random Add / Remove /
// RemoveAt / Clone steps against the reference, over sizes 0–40: both
// sides of the index threshold, and the crossing in both directions,
// many times per run.
func TestTableModel(t *testing.T) {
	universe := make([]Tag, 96)
	for i := range universe {
		universe[i] = Tag{Hi: uint64(i%3) + 1, Lo: uint64(i) + 1}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		m := newModel()
		other := newModel() // a second set, for Equal and SubsetOf
		crossedUp, crossedDown := 0, 0
		// grow steers the walk: up to 40 entries, then back down to 0.
		grow := true
		for step := 0; step < 1500; step++ {
			before := len(m.ref.order)
			k := universe[rng.Intn(len(universe))]
			if before > 0 && rng.Bool(0.5) {
				k = m.ref.order[rng.Intn(before)] // a member: removals hit, insertions do not
			}
			insertBelow := 2
			if grow {
				insertBelow = 7
			}
			switch op := rng.Intn(10); {
			case op < insertBelow && before < 40:
				v := rng.Intn(1000)
				want := m.ref.insert(k, v)
				if got := m.set.Add(k); got != want {
					t.Fatalf("seed %d step %d: Add(%v) = %v, reference %v", seed, step, k, got, want)
				}
				if p, got := m.tab.Insert(k, v); got != want || *p != m.ref.vals[k] {
					t.Fatalf("seed %d step %d: Insert(%v) = (%d, %v), reference (%d, %v)", seed, step, k, *p, got, m.ref.vals[k], want)
				}
			case op < 8:
				want := m.ref.remove(k)
				if got := m.set.Remove(k); got != want {
					t.Fatalf("seed %d step %d: Remove(%v) = %v, reference %v", seed, step, k, got, want)
				}
				if got := m.tab.Remove(k); got != want {
					t.Fatalf("seed %d step %d: table Remove(%v) = %v, reference %v", seed, step, k, got, want)
				}
			case op == 8 && before > 0:
				i := rng.Intn(before)
				k = m.ref.order[i]
				m.ref.remove(k)
				m.set.Remove(k)
				m.tab.RemoveAt(i)
			default:
				// Continue on the clone; the original becomes the other
				// set, which later mutations of the clone must not touch.
				other = m
				m = m.clone()
				if !m.set.Equal(other.set) || !other.set.Equal(m.set) {
					t.Fatalf("seed %d step %d: a clone is not Equal to its original", seed, step)
				}
			}
			switch after := len(m.ref.order); {
			case before <= tableIndexMin && after > tableIndexMin:
				crossedUp++
			case before > tableIndexMin && after <= tableIndexMin:
				crossedDown++
			}
			if len(m.ref.order) == 40 {
				grow = false
			} else if len(m.ref.order) == 0 {
				grow = true
			}
			m.check(t, universe)
			other.check(t, universe)
			wantEq := len(m.ref.vals) == len(other.ref.vals) && m.ref.subsetOf(other.ref)
			if got := m.set.Equal(other.set); got != wantEq {
				t.Fatalf("seed %d step %d: Equal = %v, reference %v", seed, step, got, wantEq)
			}
			if got, want := m.set.SubsetOf(other.set), m.ref.subsetOf(other.ref); got != want {
				t.Fatalf("seed %d step %d: SubsetOf = %v, reference %v", seed, step, got, want)
			}
			if got, want := other.set.SubsetOf(m.set), other.ref.subsetOf(m.ref); got != want {
				t.Fatalf("seed %d step %d: reverse SubsetOf = %v, reference %v", seed, step, got, want)
			}
		}
		if crossedUp < 2 || crossedDown < 2 {
			t.Fatalf("seed %d: crossed the index threshold %d times up, %d down; the walk must cross it repeatedly", seed, crossedUp, crossedDown)
		}
	}
}

// TestNewSetSizesOnce: seeding a set allocates its header and its key
// slice, nothing else, up to the size at which the index appears.
func TestNewSetSizesOnce(t *testing.T) {
	tags := make([]Tag, tableIndexMin)
	for i := range tags {
		tags[i] = Tag{Hi: 1, Lo: uint64(i) + 1}
	}
	var sink *Set
	for _, n := range []int{1, 5, tableIndexMin} {
		if got := testing.AllocsPerRun(100, func() { sink = NewSet(tags[:n]...) }); got != 2 {
			t.Errorf("NewSet of %d tags allocates %v, want 2 (the set and its keys)", n, got)
		}
	}
	_ = sink
}
