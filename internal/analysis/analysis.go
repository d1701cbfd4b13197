// Package analysis is a self-contained static-analysis framework
// modeled on golang.org/x/tools/go/analysis, built only on the standard
// library so the repo lints itself without network access or external
// module dependencies. It exists to enforce, at compile time, the
// invariants every simulation result rests on: determinism (no wall
// clock, no global RNG, no map, sync.Map or select order feeding output
// or event scheduling in the deterministic core) and no lost writes
// through := shadowing. Pool balance is held at run time, by tests that
// count what each pool hands out and gets back.
//
// The API mirrors x/tools deliberately (Analyzer, Pass, Diagnostic), so
// if the real dependency ever becomes available the analyzers port over
// with close to zero changes; until then cmd/simlint drives them over
// the packages Load returns, test files included, in one process.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Run inspects a single package
// (one Pass) and reports findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> <reason> suppression directives.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces
	// and why, shown by `simlint -list`.
	Doc string

	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries the per-package inputs an Analyzer.Run needs, and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// fileFilter, when non-nil, restricts reporting to positions whose
	// file basename it accepts. The driver uses it to fence determinism
	// to fabric's worker-side files without the analyzer itself knowing
	// the repo layout. A filter that rejects everything mutes an
	// analyzer's diagnostics entirely while its fact exports still
	// happen — how fact-producing analyzers run over packages outside
	// their reporting scope.
	fileFilter func(base string) bool

	// facts is the run-wide fact store; nil when the driver runs
	// without facts (Export/Import become no-ops).
	facts *FactStore

	diags *[]Diagnostic
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos. Findings outside the pass's file
// filter (when one is installed) are dropped.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.fileFilter != nil && !p.fileFilter(baseName(position.Filename)) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// RunConfig carries the cross-cutting inputs for one analysis run.
type RunConfig struct {
	// Facts is the shared fact store. A multi-package run passes the
	// same store for every package (dependency-order loading makes
	// dependee facts visible to dependents). Nil confines each analyzer
	// to what it learns in the one package.
	Facts *FactStore

	// FileFilters maps analyzer name to an optional per-file reporting
	// scope predicate (see Pass.fileFilter).
	FileFilters map[string]func(base string) bool
}

// RunAnalyzers executes each analyzer over the loaded package with the
// run configuration and returns the combined diagnostics sorted by
// position. The zero RunConfig runs without facts across packages and
// without filters.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, cfg RunConfig) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			fileFilter: cfg.FileFilters[a.Name],
			facts:      cfg.Facts,
			diags:      &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the stable order the driver prints in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		// Several findings of one analyzer can share a position; order
		// them by message so output is deterministic.
		return a.Message < b.Message
	})
}
