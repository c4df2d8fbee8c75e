// Package fd stands in for the real detector package: it owns View and
// may write the views it builds.
package fd

type Tag struct{ Hi, Lo uint64 }

type Pair struct {
	Label  Tag
	Number int
}

type View []Pair

func (v View) Clone() View { return append(View(nil), v...) }

type Detector interface {
	ATheta() View
	APStar() View
}

type Oracle struct{ exact View }

func (o *Oracle) ATheta(i int, now int64) View { return o.exact }

func Normalize(v View) View { return v }

// number is the package's own business.
func number(d Detector) {
	v := d.ATheta()
	v[0].Number = len(v)
	copy(v, d.APStar())
}
