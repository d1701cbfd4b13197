package stats

import (
	"bytes"
	"encoding"
	"testing"
)

// codec is one accumulator's decoder and encoder.
type codec interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// FuzzAccumulatorUnmarshal feeds outside bytes — a fabric worker's frame,
// a journal line — to every accumulator decoder. None may panic, and a
// decoder that accepts the input must re-encode it to the same bytes:
// the encoding is canonical, so an accepted blob is the state it names.
func FuzzAccumulatorUnmarshal(f *testing.F) {
	m := new(Moments)
	exact, binned, h := NewQuantileSketch(), NewQuantileSketch(), NewHist(0.5)
	for i := 0; i < 3000; i++ {
		x := float64(i%97) * 0.37
		if i < 5 {
			m.Add(x)
			exact.Add(x)
			h.Add(x)
		}
		binned.Add(x)
	}
	for _, c := range []codec{new(Moments), m, NewQuantileSketch(), exact, binned, NewHist(1), h} {
		b, err := c.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		f.Add(append(append([]byte{}, b...), b...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []codec{new(Moments), NewQuantileSketch(), NewHist(1)} {
			if c.UnmarshalBinary(data) != nil {
				continue
			}
			out, err := c.MarshalBinary()
			if err != nil {
				t.Fatalf("%T: re-encoding an accepted blob: %v", c, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%T: accepted %x but re-encodes as %x", c, data, out)
			}
		}
	})
}
