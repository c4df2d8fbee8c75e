// Package wire stands in for the real codec: it owns Message and may
// write its Body.
package wire

type Message struct {
	Kind byte
	Body []byte
}

// Other has a Body that is not a Message's.
type Other struct{ Body []byte }

// fill is the codec's own business.
func fill(m *Message) {
	m.Body[0] = 1
	copy(m.Body, "x")
	m.Body = append(m.Body[:0], 'y')
}
