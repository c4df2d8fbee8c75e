package user

import (
	"bytes"

	"bodywrite/wire"
)

type wrapped struct{ wire.Message }

func writes(m wire.Message, p *wire.Message, w wrapped, src []byte) {
	m.Body[0] = 1                  // want "write into a wire.Message's Body"
	p.Body[1] ^= 0xff              // want "write into a wire.Message's Body"
	(m.Body)[2]++                  // want "write into a wire.Message's Body"
	m.Body[1:][0] = 1              // want "write into a wire.Message's Body"
	w.Body[0] = 1                  // want "write into a wire.Message's Body"
	copy(m.Body, src)              // want "copy into a wire.Message's Body"
	copy(p.Body[4:], src)          // want "copy into a wire.Message's Body"
	_ = append(m.Body[:0], src...) // want "append onto a reslice"
	_ = append(p.Body[:1], 'x')    // want "append onto a reslice"
	m.Body[0], p.Body[0] = 0, 0    // want "write into a wire.Message's Body" "write into a wire.Message's Body"
}

func reads(m wire.Message, o wire.Other, src []byte) []byte {
	// Reading, replacing the slice, appending with its clipped capacity,
	// copying out, and writing another type's Body are all fine.
	_ = m.Body[0]
	m.Body = src
	grown := append(m.Body, 'x')
	out := make([]byte, len(m.Body))
	copy(out, m.Body)
	o.Body[0] = 1
	copy(o.Body, src)
	c := bytes.Clone(m.Body)
	c[0] = 1
	return append(grown, out...)
}
