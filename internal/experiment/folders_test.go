package experiment

import (
	"bytes"
	"reflect"
	"testing"
)

func mustEncode(t testing.TB, f Folder) []byte {
	t.Helper()
	b, err := EncodeFolder(f)
	if err != nil {
		t.Fatalf("EncodeFolder: %v", err)
	}
	return b
}

// filledPLTFolder is a shard with every field holding state.
func filledPLTFolder() *pltFolder {
	f := newPLTFolder().(*pltFolder)
	f.Fold(&RunStats{PLTs: []float64{1.5, 3.25, 7}, Retx: 2, Incomplete: 1})
	f.Fold(&RunStats{PLTs: []float64{2.75}, Retx: 5})
	return f
}

// TestPLTFolderCodecCoversEveryField: for every pltFolder field there is
// a change to that field alone which MarshalBinary must see, and which
// Merge must carry over from its argument; UnmarshalBinary must then
// overwrite every field of a folder that already holds other state. The
// perturbation table is keyed by field name and fails on a field without
// an entry, so a new field forces a decision here and in the codec.
func TestPLTFolderCodecCoversEveryField(t *testing.T) {
	perturb := map[string]func(*pltFolder){
		"plt":        func(f *pltFolder) { f.plt.Add(11) },
		"pltQ":       func(f *pltFolder) { f.pltQ.Add(11) },
		"hist":       func(f *pltFolder) { f.hist.Add(11) },
		"retx":       func(f *pltFolder) { f.retx.Add(11) },
		"incomplete": func(f *pltFolder) { f.incomplete += 3 },
	}
	base := mustEncode(t, filledPLTFolder())
	merged := filledPLTFolder()
	merged.Merge(filledPLTFolder())
	mergedEnc := mustEncode(t, merged)

	dirty := filledPLTFolder()
	typ := reflect.TypeOf(pltFolder{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fn, covered := perturb[name]
		if !covered {
			t.Errorf("pltFolder.%s has no perturbation here: decide how the codec and Merge carry it", name)
			continue
		}
		fn(dirty)
		v := filledPLTFolder()
		fn(v)
		if bytes.Equal(mustEncode(t, v), base) {
			t.Errorf("pltFolder.%s: MarshalBinary does not encode the field", name)
		}
		m := filledPLTFolder()
		m.Merge(v)
		if bytes.Equal(mustEncode(t, m), mergedEnc) {
			t.Errorf("pltFolder.%s: Merge does not carry the field over", name)
		}
	}

	want := filledPLTFolder()
	if err := dirty.UnmarshalBinary(mustEncode(t, want)); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(dirty, want) {
		t.Errorf("UnmarshalBinary left state behind:\n got %+v\nwant %+v", dirty, want)
	}
}

// FuzzDecodeFolder feeds outside bytes — a fabric worker's result frame,
// a journal record — to the registered "plt" folder's decoder. It must
// not panic, and a blob it accepts must re-encode to the same bytes.
func FuzzDecodeFolder(f *testing.F) {
	large := newPLTFolder().(*pltFolder)
	for i := 0; i < 3000; i++ {
		large.Fold(&RunStats{PLTs: []float64{float64(i%89) * 0.41}, Retx: i % 7})
	}
	for _, fo := range []Folder{newPLTFolder(), filledPLTFolder(), large} {
		b := mustEncode(f, fo)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		f.Add(append(append([]byte{}, b...), b...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fo, err := DecodeFolder("plt", data)
		if err != nil {
			return
		}
		if out := mustEncode(t, fo); !bytes.Equal(out, data) {
			t.Fatalf("accepted %x but re-encodes as %x", data, out)
		}
	})
}
