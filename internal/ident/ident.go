// Package ident implements the anonymous identifiers of the paper: the
// random tags attached to application messages (tag), the random tags
// attached to acknowledgements (tag_ack), and the random labels the failure
// detectors AΘ and AP* attach to processes.
//
// The paper assumes every drawn tag is unique ("It is necessary to generate
// a unique tag to each MSG and a unique tag_ack to each ACK"). We realise
// that assumption with 128-bit values drawn from a per-process
// deterministic stream; at the scales this simulator reaches the collision
// probability is below 2^-80, and the Registry type lets tests account for
// collisions explicitly.
package ident

import (
	"fmt"

	"anonurb/internal/xrand"
)

// Tag is a 128-bit anonymous identifier. The zero Tag is reserved as
// "absent" and is never produced by a Source.
type Tag struct {
	Hi, Lo uint64
}

// Zero reports whether t is the reserved absent value.
func (t Tag) Zero() bool { return t.Hi == 0 && t.Lo == 0 }

// Less orders tags lexicographically (Hi, then Lo). The order is used only
// for deterministic iteration and display; it has no protocol meaning.
func (t Tag) Less(u Tag) bool {
	if t.Hi != u.Hi {
		return t.Hi < u.Hi
	}
	return t.Lo < u.Lo
}

// Compare returns -1, 0 or +1 ordering t against u.
func (t Tag) Compare(u Tag) int {
	switch {
	case t == u:
		return 0
	case t.Less(u):
		return -1
	default:
		return 1
	}
}

// String renders a short hex form for traces and logs: the 16 hex digits
// of Rendered, that is of the low 32 bits of Hi and of Lo. Two tags that
// agree in those 64 bits render alike, so text built from String — the
// state fingerprints of internal/urb among it — tells tags apart only up
// to that collision. The form is pinned: snapshot digests and golden
// vectors hash it.
func (t Tag) String() string {
	var b [16]byte
	return string(t.AppendHex(b[:0]))
}

// Rendered returns the 64 bits String renders: the low 32 bits of Hi,
// then the low 32 bits of Lo. Ordering tags by it orders their String
// forms.
func (t Tag) Rendered() uint64 { return t.Hi<<32 | t.Lo&0xffffffff }

// AppendHex appends t's String form to b and returns the extended
// buffer.
func (t Tag) AppendHex(b []byte) []byte {
	const digits = "0123456789abcdef"
	v := t.Rendered()
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// Source draws fresh tags from a deterministic stream. Each simulated
// process owns one Source; the stream identity is part of the scenario
// seed, so runs replay identically.
type Source struct {
	rng   *xrand.Source
	flow  uint64
	draws uint64
}

// NewSource returns a Source backed by rng. The Source takes ownership of
// the stream.
func NewSource(rng *xrand.Source) *Source {
	return &Source{rng: rng}
}

// NewFlowSource returns a Source whose tags all share flow as their Hi
// half, with the Lo half drawn fresh per tag. Pinning the Hi half gives
// every message a broadcaster-scoped flow key that travels in the tag
// itself — through MSG retransmissions and the whole ACK family — with
// zero wire-format changes, which is what the admission stage
// (internal/admit) classifies on. Uniqueness is preserved (Lo is a
// 64-bit fresh draw), but linkability is not: all of one process's
// broadcasts share a visible prefix, a deliberate trade of anonymity for
// fairness that deployments opt into per node. flow must be nonzero.
func NewFlowSource(flow uint64, rng *xrand.Source) *Source {
	if flow == 0 {
		panic("ident: flow source requires a nonzero flow")
	}
	return &Source{rng: rng, flow: flow}
}

// Flow returns the pinned Hi half, or 0 for an unpinned Source.
func (s *Source) Flow() uint64 { return s.flow }

// Next draws a fresh tag. It never returns the zero Tag.
func (s *Source) Next() Tag {
	s.draws++
	for {
		var t Tag
		if s.flow != 0 {
			t = Tag{Hi: s.flow, Lo: s.rng.Uint64()}
		} else {
			t = Tag{Hi: s.rng.Uint64(), Lo: s.rng.Uint64()}
		}
		if !t.Zero() {
			return t
		}
	}
}

// Draws reports how many tags have been drawn. Two Sources built from the
// same seed are in identical states iff their draw counts match, which is
// what lets the model checker fingerprint process states.
func (s *Source) Draws() uint64 { return s.draws }

// SkipTo fast-forwards the stream until Draws() == draws by discarding
// tags. It is how a process restored from a snapshot resynchronises a
// fresh Source (built from the same seed) with the stream position the
// snapshot recorded, so post-recovery draws do not re-issue tags already
// pinned on the wire. It fails if the stream is already past draws —
// a Source cannot rewind.
func (s *Source) SkipTo(draws uint64) error {
	if s.draws > draws {
		return fmt.Errorf("ident: source at draw %d cannot rewind to %d", s.draws, draws)
	}
	for s.draws < draws {
		s.Next()
	}
	return nil
}

// Registry tracks every tag drawn across a whole run so tests and the
// harness can assert global uniqueness (the paper's assumption) and count
// collisions if an adversarial source is plugged in.
type Registry struct {
	seen       map[Tag]string
	collisions int
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[Tag]string)}
}

// Record notes that owner drew t. It returns false if t had already been
// drawn (a collision), in which case the collision counter is bumped.
func (r *Registry) Record(t Tag, owner string) bool {
	if _, dup := r.seen[t]; dup {
		r.collisions++
		return false
	}
	r.seen[t] = owner
	return true
}

// Collisions returns how many duplicate draws Record has observed.
func (r *Registry) Collisions() int { return r.collisions }

// Count returns how many distinct tags have been recorded.
func (r *Registry) Count() int { return len(r.seen) }

// Owner returns who first recorded t, if anyone.
func (r *Registry) Owner(t Tag) (string, bool) {
	o, ok := r.seen[t]
	return o, ok
}

// Set is a small insertion-ordered set of tags. Iteration order is the
// order of first insertion, which keeps simulator runs deterministic
// (Go map iteration order would not). It is the building block for the
// label sets carried in Algorithm 2's ACK messages: a Table with no
// values.
type Set struct {
	t Table[struct{}]
}

// NewSet returns an empty Set, optionally seeded with tags (duplicates
// ignored).
func NewSet(tags ...Tag) *Set {
	s := &Set{}
	s.t.Grow(len(tags))
	for _, t := range tags {
		s.Add(t)
	}
	return s
}

// Add inserts t; it reports whether t was newly added.
func (s *Set) Add(t Tag) bool {
	_, added := s.t.Insert(t, struct{}{})
	return added
}

// Remove deletes t; it reports whether t was present. Removal compacts the
// insertion order (preserving relative order of the survivors).
func (s *Set) Remove(t Tag) bool { return s.t.Remove(t) }

// Has reports membership.
func (s *Set) Has(t Tag) bool { return s.t.Find(t) >= 0 }

// Len returns the number of members.
func (s *Set) Len() int { return s.t.Len() }

// Slice returns the members in insertion order. The caller must not
// mutate the returned slice.
func (s *Set) Slice() []Tag { return s.t.Keys() }

// Clone returns an independent copy.
func (s *Set) Clone() *Set { return &Set{t: s.t.Clone()} }

// Equal reports whether s and o contain exactly the same members
// (insertion order is ignored).
func (s *Set) Equal(o *Set) bool {
	return s.Len() == o.Len() && s.SubsetOf(o)
}

// SubsetOf reports whether every member of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	for _, t := range s.Slice() {
		if !o.Has(t) {
			return false
		}
	}
	return true
}
