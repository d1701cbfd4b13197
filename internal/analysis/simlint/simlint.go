// Package simlint assembles the repo's analyzer suite and the policy
// mapping analyzers to the packages whose invariants they guard. The
// analyzers themselves are policy-free; this package is where the
// repo's layout is encoded, and cmd/simlint is a thin driver over it.
//
// The deterministic set is exactly the packages that execute between a
// root seed and a Result: the event loop (sim), the transport model
// (tcpsim), the path emulator (netem), the radio state machine (rrc),
// the client model (browser), the workload (webpage), the sweep engine
// (experiment) and the aggregators (stats). Code outside the set —
// liveproxy, validate, httpwire, cmd — talks to real sockets and real
// time by design, so wall-clock and goroutine-order effects are part of
// its contract, not a bug. The process fabric (fabric) is split down
// the middle: its worker/wire/journal files are held to the
// deterministic bar, its coordinator is not.
package simlint

import (
	"strings"

	"spdier/internal/analysis"
	"spdier/internal/analysis/clockarith"
	"spdier/internal/analysis/dettaint"
	"spdier/internal/analysis/globalrand"
	"spdier/internal/analysis/maprange"
	"spdier/internal/analysis/poolbalance"
	"spdier/internal/analysis/shadow"
	"spdier/internal/analysis/wallclock"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	wallclock.Analyzer,
	globalrand.Analyzer,
	maprange.Analyzer,
	poolbalance.Analyzer,
	clockarith.Analyzer,
	shadow.Analyzer,
	dettaint.Analyzer,
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

// pooledPackages additionally run the pool-discipline check: they own
// sync.Pools or segment pools but are not (all) in the deterministic
// set. proxy sits on the sim side of the SPDY framing and shares the
// segment pool through tcpsim.
var pooledPackages = []string{
	"spdier/internal/spdy",
	"spdier/internal/proxy",
}

func isDeterministic(importPath string) bool {
	for _, p := range DeterministicPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

func isPooled(importPath string) bool {
	for _, p := range pooledPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// fabricDeterministicFile scopes wallclock inside internal/fabric to
// the worker side of its fence: the worker loop, wire codec and journal
// must stay wallclock-clean so a shard folded in a worker process is a
// pure function of its job spec. coordinator.go alone owns real time
// (process deadlines, respawn) by design, so it is excluded.
func fabricDeterministicFile(base string) bool {
	switch base {
	case "worker.go", "wire.go", "journal.go":
		return true
	}
	return false
}

// probeReportFile scopes clockarith to the files that render or record
// measurements — where a magic duration threshold changes reported
// numbers rather than simulated behaviour.
func probeReportFile(base string) bool {
	for _, marker := range []string{"probe", "report", "metrics", "stats", "streaming"} {
		if strings.Contains(base, marker) {
			return true
		}
	}
	return false
}

// ForPackage returns the analyzers that apply to importPath plus any
// per-analyzer file filters. Packages outside the module get nothing.
func ForPackage(importPath string) ([]*analysis.Analyzer, map[string]func(string) bool) {
	var out []*analysis.Analyzer
	filters := map[string]func(string) bool{}
	if isDeterministic(importPath) {
		out = append(out,
			wallclock.Analyzer,
			globalrand.Analyzer,
			maprange.Analyzer,
			poolbalance.Analyzer,
			clockarith.Analyzer,
		)
		filters[clockarith.Analyzer.Name] = probeReportFile
	} else if importPath == "spdier/internal/fabric" {
		// The process fabric straddles the fence: its worker loop, wire
		// codec and journal are deterministic (a shard's bytes must not
		// depend on which process folded it), while its coordinator owns
		// real time. Wallclock is therefore scoped per file.
		out = append(out, wallclock.Analyzer, globalrand.Analyzer, maprange.Analyzer)
		filters[wallclock.Analyzer.Name] = fabricDeterministicFile
	} else if isPooled(importPath) {
		out = append(out, poolbalance.Analyzer)
	}
	if strings.HasPrefix(importPath, "spdier/") || importPath == "spdier" {
		out = append(out, shadow.Analyzer)
		// The fact-producing analyzer runs module-wide so its facts exist
		// wherever a deterministic package's call graph leads; its
		// reporting is muted outside the deterministic set — an
		// all-rejecting file filter drops its diagnostics while facts
		// still export.
		out = append(out, dettaint.Analyzer)
		switch {
		case isDeterministic(importPath):
			// report everywhere in the package
		case importPath == "spdier/internal/fabric":
			filters[dettaint.Analyzer.Name] = fabricDeterministicFile
		default:
			filters[dettaint.Analyzer.Name] = func(string) bool { return false }
		}
	}
	return out, filters
}

// Check runs the applicable analyzers over one loaded package and
// applies //lint:allow suppressions. The returned diagnostics are the
// unsuppressed findings plus any malformed-directive findings. Facts
// are confined to the one package; multi-package drivers use
// CheckFacts with a shared store.
func Check(pkg *analysis.Package) ([]analysis.Diagnostic, error) {
	return CheckFacts(pkg, analysis.NewFactStore())
}

// CheckFacts is Check with an explicit fact store. A driver analyzing
// packages in dependency order passes the same store for all of them,
// so facts exported from a dependency (dettaint's sink/ordered
// classifications) are visible when its dependents are analyzed.
func CheckFacts(pkg *analysis.Package, facts *analysis.FactStore) ([]analysis.Diagnostic, error) {
	analyzers, filters := ForPackage(pkg.ImportPath)
	if len(analyzers) == 0 {
		return nil, nil
	}
	diags, err := analysis.RunAnalyzersFacts(pkg, analyzers, analysis.RunConfig{Facts: facts, FileFilters: filters})
	if err != nil {
		return nil, err
	}
	return analysis.ApplySuppressions(pkg.Fset, pkg.Files, diags), nil
}

// RegisterFactTypes registers every suite analyzer's fact types for
// wire decoding — required before seeding a FactStore from .vetx files,
// since decode happens before any analyzer has run.
func RegisterFactTypes() {
	for _, a := range Analyzers {
		for _, f := range a.FactTypes {
			analysis.RegisterFactType(f)
		}
	}
}

// CheckDir runs the ENTIRE suite, unscoped, over a bare directory of Go
// files (a seeded violation fixture under testdata). Suppressions still
// apply, so fixtures can exercise those too.
func CheckDir(dir, moduleRoot string) ([]analysis.Diagnostic, error) {
	pkg, err := analysis.LoadDir(dir, moduleRoot)
	if err != nil {
		return nil, err
	}
	diags, err := analysis.RunAnalyzers(pkg, Analyzers, nil)
	if err != nil {
		return nil, err
	}
	return analysis.ApplySuppressions(pkg.Fset, pkg.Files, diags), nil
}
