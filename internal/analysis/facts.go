// The facts layer: serializable per-object findings an analyzer
// exports while analyzing one package and imports while analyzing its
// dependents — the mechanism that turns the per-package
// linter into a cross-package analysis engine. The shape mirrors
// x/tools' AnalyzerFact protocol (Analyzer.FactTypes, Pass.Export/
// ImportObjectFact), so analyzers written against it port directly.
//
// Facts travel two ways:
//
//   - standalone (`simlint ./...`): `go list -deps` emits dependencies
//     before dependents, so one shared in-memory FactStore naturally
//     sees every callee's facts before its callers are analyzed;
//   - vettool (one process per package): facts are serialized into the
//     .vetx file cmd/go asks for (vetConfig.VetxOutput) and re-read
//     from the dependency facts files it supplies (PackageVetx) —
//     exported alongside the compiler export data, exactly like the
//     real unitchecker.
//
// Facts attach to package-level objects only — package-scope funcs,
// vars, types, and methods (addressed as "Type.Method") — which is all
// the analyzers here need and keeps the object naming trivial and
// stable (no objectpath machinery).
package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Fact is a marker interface for analyzer facts. Implementations must
// be pointers to JSON-serializable structs and must be registered (via
// Analyzer.FactTypes or RegisterFactType) before any decode.
type Fact interface {
	AFact() // marker method; no behaviour
}

// factTypeName returns the stable wire name of a fact's dynamic type,
// e.g. "*determinism.SinkFact" → "determinism.SinkFact".
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

var factRegistry = struct {
	sync.Mutex
	byName map[string]reflect.Type // wire name -> struct type (not pointer)
}{byName: map[string]reflect.Type{}}

// RegisterFactType makes a fact type decodable by name. Registration is
// idempotent; registering two distinct types under one name panics.
// Analyzer packages call this from init (and RunAnalyzers registers
// Analyzer.FactTypes automatically), so decoding a facts file only
// requires importing the analyzers that produced it.
func RegisterFactType(f Fact) {
	name := factTypeName(f)
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("analysis: fact %s must be a pointer to a struct", name))
	}
	factRegistry.Lock()
	defer factRegistry.Unlock()
	if prev, ok := factRegistry.byName[name]; ok {
		if prev != t.Elem() {
			panic(fmt.Sprintf("analysis: fact name %s registered for two types", name))
		}
		return
	}
	factRegistry.byName[name] = t.Elem()
}

func newFactByName(name string) (Fact, bool) {
	factRegistry.Lock()
	t, ok := factRegistry.byName[name]
	factRegistry.Unlock()
	if !ok {
		return nil, false
	}
	return reflect.New(t).Interface().(Fact), true
}

// factKey addresses one stored fact.
type factKey struct {
	analyzer string
	pkg      string
	object   string
	typ      string
}

// FactStore holds every fact produced (or imported) during one lint
// run. It is shared across all packages of a standalone run and seeded
// from dependency .vetx files in vettool mode. Safe for concurrent use.
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
	p.facts.put(factKey{p.Analyzer.Name, obj.Pkg().Path(), path, factTypeName(f)}, f)
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
	return p.facts.get(factKey{p.Analyzer.Name, obj.Pkg().Path(), path, factTypeName(f)}, f)
}

// Wire format: a JSON object with a magic field, so a facts file
// written by an older simlint (or any other tool's vetx output) is
// recognized and ignored rather than misdecoded.
const factsMagic = "simlint-facts"

type wireFacts struct {
	Magic   string     `json:"simlintFacts"`
	Version int        `json:"v"`
	Facts   []wireFact `json:"facts"`
}

type wireFact struct {
	Analyzer string          `json:"a"`
	Pkg      string          `json:"pkg"`
	Object   string          `json:"obj,omitempty"`
	Type     string          `json:"t"`
	Data     json.RawMessage `json:"d"`
}

// Encode serializes every fact in the store (the package under analysis
// plus everything imported into it, so dependents see transitive facts
// regardless of how cmd/go prunes its PackageVetx map). The output is
// deterministic: facts are sorted by (pkg, object, analyzer, type).
func (s *FactStore) Encode() ([]byte, error) {
	s.mu.Lock()
	keys := make([]factKey, 0, len(s.facts))
	for k := range s.facts {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.object != b.object {
			return a.object < b.object
		}
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		return a.typ < b.typ
	})
	w := wireFacts{Magic: factsMagic, Version: 1}
	for _, k := range keys {
		s.mu.Lock()
		f := s.facts[k]
		s.mu.Unlock()
		data, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("analysis: encoding fact %s/%s: %w", k.pkg, k.object, err)
		}
		w.Facts = append(w.Facts, wireFact{Analyzer: k.analyzer, Pkg: k.pkg, Object: k.object, Type: k.typ, Data: data})
	}
	return json.Marshal(w)
}

// Decode merges a facts file into the store. Unrecognized files (no
// magic — e.g. a legacy placeholder vetx) are ignored without error;
// facts whose type is not registered are skipped (an analyzer that was
// removed can leave stale facts behind harmlessly).
func (s *FactStore) Decode(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if !strings.HasPrefix(trimmed, "{") || !strings.Contains(trimmed, factsMagic) {
		return nil
	}
	var w wireFacts
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("analysis: decoding facts: %w", err)
	}
	if w.Magic != factsMagic {
		return nil
	}
	for _, wf := range w.Facts {
		f, ok := newFactByName(wf.Type)
		if !ok {
			continue
		}
		if err := json.Unmarshal(wf.Data, f); err != nil {
			return fmt.Errorf("analysis: decoding %s fact for %s.%s: %w", wf.Type, wf.Pkg, wf.Object, err)
		}
		s.put(factKey{wf.Analyzer, wf.Pkg, wf.Object, wf.Type}, f)
	}
	return nil
}
