package user

import (
	"slices"
	"sort"

	"viewwrite/fd"
)

type byLabel fd.View

func (b byLabel) Len() int           { return len(b) }
func (b byLabel) Less(i, j int) bool { return b[i].Label.Hi < b[j].Label.Hi }
func (b byLabel) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// other has an ATheta that yields no fd.View.
type other struct{ xs []int }

func (o other) ATheta() []int { return o.xs }

func writes(d fd.Detector, o *fd.Oracle, src fd.View) {
	v := d.ATheta()
	v[0] = fd.Pair{}                                                          // want "write into a detector view"
	v[1].Number = 3                                                           // want "write into a detector view"
	(v)[2].Number++                                                           // want "write into a detector view"
	v[0].Label.Hi ^= 1                                                        // want "write into a detector view"
	v[1:][0] = fd.Pair{}                                                      // want "write into a detector view"
	d.APStar()[0] = fd.Pair{}                                                 // want "write into a detector view"
	copy(v, src)                                                              // want "copy into a detector view"
	copy(v[2:], src)                                                          // want "copy into a detector view"
	_ = append(v[:0], src...)                                                 // want "append onto a reslice of a detector view"
	slices.SortFunc(v, func(a, b fd.Pair) int { return a.Number - b.Number }) // want "slices.SortFunc writes a detector view in place"
	slices.Reverse(v)                                                         // want "slices.Reverse writes a detector view in place"
	_ = slices.Delete(v, 0, 1)                                                // want "slices.Delete writes a detector view in place"
	sort.Sort(byLabel(v))                                                     // want "sort.Sort writes a detector view in place"
	sort.Slice(v, func(i, j int) bool { return i < j })                       // want "sort.Slice writes a detector view in place"
	_ = fd.Normalize(d.APStar())                                              // want "fd.Normalize writes a detector view in place"

	w := o.ATheta(1, 0)
	alias := w[1:]
	alias[0].Number = 2 // want "write into a detector view"
	alias = alias[1:]
	alias[0].Number = 2 // want "write into a detector view"
	var star fd.View = d.APStar()
	star[0], v[0] = fd.Pair{}, fd.Pair{} // want "write into a detector view" "write into a detector view"
	func() {
		star[0].Number = 1 // want "write into a detector view"
	}()
}

func ownViews(d fd.Detector, param fd.View, src fd.View) fd.View {
	// Reading a view, copying out of it, and writing a view the function
	// built itself — make, a literal, Clone, append onto nil — are fine,
	// and so is a parameter or a variable reassigned to its own copy.
	v := d.ATheta()
	_ = v[0]
	out := make(fd.View, len(v))
	copy(out, v)
	out[0].Number = 1
	slices.SortFunc(out, func(a, b fd.Pair) int { return a.Number - b.Number })
	lit := fd.View{{Number: 1}}
	lit[0].Number = 2
	c := v.Clone()
	c[0] = fd.Pair{}
	grown := append(fd.View(nil), v...)
	grown[0].Number = 3
	_ = fd.Normalize(grown)
	for _, p := range v {
		p.Number = 4
		_ = p
	}
	v = v.Clone()
	v[0].Number = 5
	sort.Sort(byLabel(v))
	param[0].Number = 6
	made := make(fd.View, 5)
	for i := range made {
		made[i] = fd.Pair{Number: i}
	}
	_ = fd.Normalize(made)
	var o other
	o.ATheta()[0] = 1
	return append(c, src...)
}
