package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// testFact is a fact type for the round-trip tests.
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

func TestRunConfigFactsNilIsNoop(t *testing.T) {
	pkg, v, _, _ := fakePkg("example.com/p")
	p := passFor(pkg, nil)
	p.ExportObjectFact(v, &testFact{N: 5}) // must not panic
	var got testFact
	if p.ImportObjectFact(v, &got) {
		t.Error("nil-store ImportObjectFact returned true")
	}
}
