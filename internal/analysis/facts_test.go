package analysis

import (
	"bytes"
	"go/token"
	"go/types"
	"testing"
)

// testFact is a registered fact type for the round-trip tests.
type testFact struct {
	Fields []string `json:"fields"`
	N      int      `json:"n"`
}

func (*testFact) AFact() {}

// otherFact exists to prove facts of different types on one object
// don't collide.
type otherFact struct {
	Tainted bool `json:"tainted"`
}

func (*otherFact) AFact() {}

func init() {
	RegisterFactType(&testFact{})
	RegisterFactType(&otherFact{})
}

// fakePkg builds a types.Package with one package-level var V, one
// func F, and one method T.M, without invoking the go tool.
func fakePkg(path string) (*types.Package, types.Object, types.Object, types.Object) {
	pkg := types.NewPackage(path, "p")
	v := types.NewVar(token.NoPos, pkg, "V", types.Typ[types.Int])
	pkg.Scope().Insert(v)
	f := types.NewFunc(token.NoPos, pkg, "F", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	pkg.Scope().Insert(f)
	tn := types.NewTypeName(token.NoPos, pkg, "T", nil)
	named := types.NewNamed(tn, types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(tn)
	recv := types.NewVar(token.NoPos, pkg, "r", types.NewPointer(named))
	m := types.NewFunc(token.NoPos, pkg, "M", types.NewSignatureType(recv, nil, nil, nil, nil, false))
	return pkg, v, f, m
}

func passFor(pkg *types.Package, store *FactStore) *Pass {
	return &Pass{Analyzer: &Analyzer{Name: "testan"}, Pkg: pkg, facts: store}
}

func TestObjectPath(t *testing.T) {
	pkg, v, f, m := fakePkg("example.com/p")
	for _, tc := range []struct {
		obj  types.Object
		want string
	}{
		{v, "V"},
		{f, "F"},
		{m, "T.M"},
	} {
		got, ok := ObjectPath(tc.obj)
		if !ok || got != tc.want {
			t.Errorf("ObjectPath(%v) = %q, %v; want %q, true", tc.obj, got, ok, tc.want)
		}
	}
	local := types.NewVar(token.NoPos, pkg, "local", types.Typ[types.Int]) // never inserted into package scope
	if _, ok := ObjectPath(local); ok {
		t.Error("ObjectPath accepted a non-package-scope object")
	}
}

func TestFactRoundTripInMemory(t *testing.T) {
	pkg, v, _, m := fakePkg("example.com/p")
	store := NewFactStore()
	p := passFor(pkg, store)

	p.ExportObjectFact(v, &testFact{Fields: []string{"A", "B"}, N: 2})
	p.ExportObjectFact(m, &testFact{Fields: []string{"C"}, N: 1})
	p.ExportObjectFact(m, &otherFact{Tainted: true})

	var got testFact
	if !p.ImportObjectFact(v, &got) || got.N != 2 || len(got.Fields) != 2 {
		t.Fatalf("ImportObjectFact(V) = %+v, want fields [A B]", got)
	}
	// Mutating the imported copy must not leak back into the store.
	got.Fields[0] = "MUTATED"
	var again testFact
	if !p.ImportObjectFact(v, &again) || again.Fields[0] != "A" {
		t.Fatalf("imported fact aliases store contents: %+v", again)
	}
	var mf testFact
	if !p.ImportObjectFact(m, &mf) || mf.Fields[0] != "C" {
		t.Fatalf("ImportObjectFact(T.M) = %+v", mf)
	}
	var of otherFact
	if !p.ImportObjectFact(m, &of) || !of.Tainted {
		t.Fatalf("ImportObjectFact(T.M, otherFact) = %+v", of)
	}
	var missing testFact
	if p.ImportObjectFact(types.NewVar(token.NoPos, pkg, "W", types.Typ[types.Int]), &missing) {
		t.Error("ImportObjectFact found a fact for an object with none")
	}
}

func TestFactEncodeDecodeRoundTrip(t *testing.T) {
	pkg, v, f, m := fakePkg("example.com/p")
	store := NewFactStore()
	p := passFor(pkg, store)
	p.ExportObjectFact(v, &testFact{Fields: []string{"A"}, N: 1})
	p.ExportObjectFact(f, &otherFact{Tainted: true})
	p.ExportObjectFact(m, &testFact{Fields: []string{"X", "Y"}, N: 7})
	p.ExportObjectFact(v, &otherFact{Tainted: true})

	data, err := store.Encode()
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewFactStore()
	if err := fresh.Decode(data); err != nil {
		t.Fatal(err)
	}
	p2 := passFor(pkg, fresh)
	var got testFact
	if !p2.ImportObjectFact(m, &got) || got.N != 7 || got.Fields[1] != "Y" {
		t.Fatalf("after decode, ImportObjectFact(T.M) = %+v", got)
	}
	var of otherFact
	if !p2.ImportObjectFact(f, &of) || !of.Tainted {
		t.Fatalf("after decode, ImportObjectFact(F) = %+v", of)
	}
	var vf otherFact
	if !p2.ImportObjectFact(v, &vf) || !vf.Tainted {
		t.Fatalf("after decode, ImportObjectFact(V, otherFact) = %+v", vf)
	}

	// Re-encoding the decoded store reproduces the bytes: the wire
	// format is deterministic, which the vet cache depends on.
	data2, err := fresh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("encode not deterministic:\n%s\nvs\n%s", data, data2)
	}
}

func TestFactDecodeToleratesForeignContent(t *testing.T) {
	for _, tc := range []string{
		"",
		"simlint: no facts\n",            // the pre-facts placeholder vetx
		"\x00\x01binary garbage",         // arbitrary vetx from another tool
		`{"some":"other json"}`,          // JSON without the magic
		`{"simlintFacts":"wrong-magic"}`, // magic key, wrong value
	} {
		store := NewFactStore()
		if err := store.Decode([]byte(tc)); err != nil {
			t.Errorf("Decode(%q) = %v, want nil (ignored)", tc, err)
		}
		if len(store.facts) != 0 {
			t.Errorf("Decode(%q) populated the store", tc)
		}
	}
}

func TestFactDecodeSkipsUnregisteredTypes(t *testing.T) {
	data := []byte(`{"simlintFacts":"simlint-facts","v":1,"facts":[` +
		`{"a":"gone","pkg":"example.com/p","obj":"V","t":"gone.RetiredFact","d":{}},` +
		`{"a":"testan","pkg":"example.com/p","obj":"V","t":"analysis.testFact","d":{"fields":["A"],"n":1}}]}`)
	store := NewFactStore()
	if err := store.Decode(data); err != nil {
		t.Fatal(err)
	}
	pkg, v, _, _ := fakePkg("example.com/p")
	var got testFact
	if !passFor(pkg, store).ImportObjectFact(v, &got) || got.N != 1 {
		t.Fatalf("registered fact lost alongside the unregistered one: %+v", got)
	}
	if len(store.facts) != 1 {
		t.Errorf("store has %d facts, want 1 (retired type skipped)", len(store.facts))
	}
}

func TestRunConfigFactsNilIsNoop(t *testing.T) {
	pkg, v, _, _ := fakePkg("example.com/p")
	p := passFor(pkg, nil)
	p.ExportObjectFact(v, &testFact{N: 5}) // must not panic
	var got testFact
	if p.ImportObjectFact(v, &got) {
		t.Error("nil-store ImportObjectFact returned true")
	}
}
