// The facts layer: per-object findings an analyzer exports while
// analyzing one package and imports while analyzing its dependents —
// the mechanism that turns the per-package linter into a cross-package
// analysis engine. The shape mirrors x/tools' AnalyzerFact protocol
// (Pass.ExportObjectFact/ImportObjectFact), so analyzers written
// against it port directly.
//
// Facts live in one in-memory FactStore for the whole run: Load returns
// every package after its dependencies, and test variants after every
// plain package, so a callee's facts are in the store before any caller
// is analyzed.
//
// Facts attach to package-level objects only — package-scope funcs,
// vars, types, and methods (addressed as "Type.Method") — which is all
// the analyzers here need and keeps the object naming trivial and
// stable (no objectpath machinery).
package analysis

import (
	"encoding/json"
	"go/types"
	"reflect"
	"sync"
)

// Fact is a marker interface for analyzer facts. Implementations must
// be pointers to JSON-serializable structs: the store hands out copies
// made by a JSON round trip.
type Fact interface {
	AFact() // marker method; no behaviour
}

// factKey addresses one stored fact.
type factKey struct {
	analyzer string
	pkg      string
	object   string
	typ      reflect.Type
}

// FactStore holds every fact produced during one lint run, shared
// across all of its packages. Safe for concurrent use.
type FactStore struct {
	mu    sync.Mutex
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]Fact{}}
}

func (s *FactStore) put(k factKey, f Fact) {
	s.mu.Lock()
	s.facts[k] = f
	s.mu.Unlock()
}

// get copies the stored fact for k into dst (a pointer) via a JSON
// round trip, so callers can never alias the stored value.
func (s *FactStore) get(k factKey, dst Fact) bool {
	s.mu.Lock()
	src, ok := s.facts[k]
	s.mu.Unlock()
	if !ok {
		return false
	}
	data, err := json.Marshal(src)
	if err != nil {
		return false
	}
	return json.Unmarshal(data, dst) == nil
}

// ObjectPath names a package-level object for fact addressing: "Name"
// for package-scope functions, vars and types, "Type.Method" for
// methods (receiver pointer-ness ignored). ok is false for objects
// facts cannot attach to (locals, fields, imported package names).
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, isFn := obj.(*types.Func); isFn {
		sig, isSig := fn.Type().(*types.Signature)
		if isSig && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			named, isNamed := t.(*types.Named)
			if !isNamed {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// ExportObjectFact attaches a fact about obj (which must belong to the
// package under analysis) for dependent packages to import. Objects
// facts cannot address are silently skipped.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	path, ok := ObjectPath(obj)
	if !ok {
		return
	}
	p.facts.put(factKey{p.Analyzer.Name, obj.Pkg().Path(), path, reflect.TypeOf(f)}, f)
}

// ImportObjectFact copies the fact of f's type previously exported for
// obj (by this analyzer, in obj's package) into f. It reports whether a
// fact was found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	path, ok := ObjectPath(obj)
	if !ok {
		return false
	}
	return p.facts.get(factKey{p.Analyzer.Name, obj.Pkg().Path(), path, reflect.TypeOf(f)}, f)
}
