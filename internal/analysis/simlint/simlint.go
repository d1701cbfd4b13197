// Package simlint assembles the repo's analyzer suite and the policy
// mapping analyzers to the packages whose invariants they guard. The
// analyzers themselves are policy-free; this package is where the
// repo's layout is encoded, and cmd/simlint is a thin driver over it.
//
// The deterministic set is exactly the packages that execute between a
// root seed and a Result: the event loop (sim), the transport model
// (tcpsim, transport, h2), the path emulator (netem), the radio state
// machine (rrc), the client model (browser), the workload (webpage),
// the sweep engine (experiment) and the aggregators (stats). Code
// outside the set — liveproxy, validate, httpwire, cmd — talks to real
// sockets and real time by design, so wall-clock and goroutine-order
// effects are part of its contract, not a bug. The process fabric
// (fabric) is split down the middle: its worker/wire/journal files are
// held to the deterministic bar, its coordinator is not.
//
// Each package gets one determinism scope: reported everywhere in the
// deterministic set, in fabric's three worker-side files, and nowhere
// else in the module — where the analyzer still runs, so the facts it
// exports exist wherever a deterministic package's call graph leads.
package simlint

import (
	"slices"
	"strings"

	"spdier/internal/analysis"
	"spdier/internal/analysis/determinism"
	"spdier/internal/analysis/shadow"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	shadow.Analyzer,
}

// DeterministicPackages are the packages whose outputs must be a pure
// function of (Options, seed). See the package comment for the
// rationale behind the membership.
var DeterministicPackages = []string{
	"spdier/internal/sim",
	"spdier/internal/tcpsim",
	"spdier/internal/netem",
	"spdier/internal/rrc",
	"spdier/internal/browser",
	"spdier/internal/webpage",
	"spdier/internal/experiment",
	"spdier/internal/stats",
	"spdier/internal/transport",
	"spdier/internal/h2",
}

// fabricDeterministicFile is the fence inside internal/fabric: the
// worker loop, wire codec and journal must stay deterministic so a
// shard folded in a worker process is a pure function of its job spec.
// coordinator.go alone owns real time (process deadlines, respawn) and
// process bookkeeping by design, so it is outside the fence.
func fabricDeterministicFile(base string) bool {
	switch base {
	case "worker.go", "wire.go", "journal.go":
		return true
	}
	return false
}

// ForPackage returns the analyzers that apply to importPath — the whole
// suite, for every package of the module — and determinism's reporting
// scope there (nil reports everywhere). Packages outside the module get
// nothing.
func ForPackage(importPath string) ([]*analysis.Analyzer, map[string]func(string) bool) {
	if importPath != "spdier" && !strings.HasPrefix(importPath, "spdier/") {
		return nil, nil
	}
	var scope func(string) bool
	switch {
	case slices.Contains(DeterministicPackages, importPath):
	case importPath == "spdier/internal/fabric":
		scope = fabricDeterministicFile
	default:
		// Facts only: an all-rejecting filter drops the diagnostics
		// while the facts still export.
		scope = func(string) bool { return false }
	}
	return Analyzers, map[string]func(string) bool{determinism.Analyzer.Name: scope}
}

// Check runs the suite over pkgs in order with one fact store and
// returns the findings sorted by position: each package gets the
// analyzers and filters ForPackage gives it, then its //lint:allow
// directives. In analysis.Load's order every fact a package imports —
// determinism's sink and ordered classifications — is in the store
// before the package is analyzed.
func Check(pkgs []*analysis.Package) ([]analysis.Diagnostic, error) {
	facts := analysis.NewFactStore()
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		analyzers, filters := ForPackage(pkg.ImportPath)
		if len(analyzers) == 0 {
			continue
		}
		diags, err := check(pkg, analyzers, analysis.RunConfig{Facts: facts, FileFilters: filters})
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	analysis.SortDiagnostics(all)
	return all, nil
}

// CheckDir runs the ENTIRE suite, unscoped, over a bare directory of Go
// files (a seeded violation fixture under testdata). Suppressions still
// apply, so fixtures can exercise those too.
func CheckDir(dir, moduleRoot string) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.LoadDirs(moduleRoot, dir)
	if err != nil {
		return nil, err
	}
	return check(pkgs[0], Analyzers, analysis.RunConfig{})
}

// check runs analyzers over pkg and applies its suppressions.
func check(pkg *analysis.Package, analyzers []*analysis.Analyzer, cfg analysis.RunConfig) ([]analysis.Diagnostic, error) {
	diags, err := analysis.RunAnalyzers(pkg, analyzers, cfg)
	if err != nil {
		return nil, err
	}
	return analysis.ApplySuppressions(pkg.Fset, pkg.Files, diags, Analyzers), nil
}
