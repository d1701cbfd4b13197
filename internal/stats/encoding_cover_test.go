package stats

import (
	"bytes"
	"reflect"
	"testing"
)

// These tests hold the accumulator codecs to every field: for each
// struct field there is a pair of values differing only in that field
// whose encodings must differ (encode covers the field), and a round
// trip must restore the field exactly (decode covers it). The NumField
// pins force this table — and with it the codec — to grow with the
// struct.

func mustMarshal(t *testing.T, enc interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	out, err := enc.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return out
}

func TestMomentsCodecCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(Moments{}).NumField(); n != 3 {
		t.Fatalf("Moments has %d fields; extend the variants below (and the codec) for the new one", n)
	}
	base := Moments{n: 3, mean: 1.5, m2: 0.75}
	variants := map[string]Moments{
		"n":    {n: 4, mean: 1.5, m2: 0.75},
		"mean": {n: 3, mean: 2.5, m2: 0.75},
		"m2":   {n: 3, mean: 1.5, m2: 1.75},
	}
	enc := mustMarshal(t, &base)
	for name, v := range variants {
		if bytes.Equal(enc, mustMarshal(t, &v)) {
			t.Errorf("Moments.%s: two accumulators differing only in this field encode identically", name)
		}
	}
	var rt Moments
	if err := rt.UnmarshalBinary(enc); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if rt != base {
		t.Errorf("round trip lost state: got %+v, want %+v", rt, base)
	}
}

func TestQuantileSketchCodecCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(QuantileSketch{}).NumField(); n != 7 {
		t.Fatalf("QuantileSketch has %d fields; extend the variants below (and the codec) for the new one", n)
	}
	// A collapsed (binned) sketch exercises every scalar plus bins; the
	// exact-mode pair covers the raw-sample path.
	base := QuantileSketch{n: 5, min: 1, max: 9, lo: 0, width: 1, bins: []uint64{2, 3}}
	variants := map[string]QuantileSketch{
		"n":     {n: 6, min: 1, max: 9, lo: 0, width: 1, bins: []uint64{2, 3}},
		"min":   {n: 5, min: 2, max: 9, lo: 0, width: 1, bins: []uint64{2, 3}},
		"max":   {n: 5, min: 1, max: 8, lo: 0, width: 1, bins: []uint64{2, 3}},
		"lo":    {n: 5, min: 1, max: 9, lo: 1, width: 1, bins: []uint64{2, 3}},
		"width": {n: 5, min: 1, max: 9, lo: 0, width: 2, bins: []uint64{2, 3}},
		"bins":  {n: 5, min: 1, max: 9, lo: 0, width: 1, bins: []uint64{3, 2}},
	}
	enc := mustMarshal(t, &base)
	for name, v := range variants {
		v := v
		if bytes.Equal(enc, mustMarshal(t, &v)) {
			t.Errorf("QuantileSketch.%s: two sketches differing only in this field encode identically", name)
		}
	}
	exactA := QuantileSketch{n: 2, min: 1, max: 4, exact: []float64{1, 4}}
	exactB := QuantileSketch{n: 2, min: 1, max: 4, exact: []float64{4, 1}}
	if bytes.Equal(mustMarshal(t, &exactA), mustMarshal(t, &exactB)) {
		t.Error("QuantileSketch.exact: two sketches differing only in raw samples encode identically")
	}

	for _, s := range []QuantileSketch{base, exactA} {
		s := s
		var rt QuantileSketch
		if err := rt.UnmarshalBinary(mustMarshal(t, &s)); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if !reflect.DeepEqual(rt, s) {
			t.Errorf("round trip lost state: got %+v, want %+v", rt, s)
		}
	}
}

func TestHistCodecCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(Hist{}).NumField(); n != 3 {
		t.Fatalf("Hist has %d fields; extend the variants below (and the codec) for the new one", n)
	}
	base := Hist{width: 2, bins: []uint64{1, 2}, n: 3}
	variants := map[string]Hist{
		"width": {width: 3, bins: []uint64{1, 2}, n: 3},
		"bins":  {width: 2, bins: []uint64{2, 1}, n: 3},
		"n":     {width: 2, bins: []uint64{1, 2}, n: 4},
	}
	enc := mustMarshal(t, &base)
	for name, v := range variants {
		v := v
		if bytes.Equal(enc, mustMarshal(t, &v)) {
			t.Errorf("Hist.%s: two histograms differing only in this field encode identically", name)
		}
	}
	var rt Hist
	if err := rt.UnmarshalBinary(enc); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(rt, base) {
		t.Errorf("round trip lost state: got %+v, want %+v", rt, base)
	}
}
