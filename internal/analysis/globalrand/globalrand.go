// Package globalrand forbids the process-global math/rand generator in
// the deterministic simulation core. Global-source draws are shared
// mutable state: two sweep runs scheduled on different goroutines
// interleave their draws differently on every execution, so results
// stop being a function of the root seed. The simulator's own
// sim.RNG (seedable, forkable, allocation-free) is the replacement;
// an explicitly seeded rand.New(rand.NewSource(seed)) is tolerated
// because it is still a pure function of its seed. A testing/quick
// Config without a Rand is flagged too: its cases come from the clock.
package globalrand

import (
	"go/ast"

	"spdier/internal/analysis"
)

// Analyzer is the globalrand check.
var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid math/rand global-source functions, unseeded rand.New and quick.Config without Rand in the " +
		"deterministic core; randomness must come from the seeded, forkable sim.RNG",
	Run: run,
}

// randPkgs are the package paths whose global generator is banned.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// allowed names are constructors of explicit, locally owned generators;
// everything else exported from math/rand that is callable draws from
// (or perturbs) the shared global source.
var allowed = map[string]bool{
	"New":        true, // checked separately for an explicit source
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand: the caller already owns a source
	"NewPCG":     true, // math/rand/v2 explicit sources
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, isLit := n.(*ast.CompositeLit); isLit {
				checkQuickConfig(pass, lit)
				return true
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			pkgPath, name, isPkgFn := analysis.PkgFuncCall(pass.TypesInfo, call)
			if isPkgFn && pkgPath == quickPkg && (name == "Check" || name == "CheckEqual") {
				if last := call.Args[len(call.Args)-1]; pass.TypesInfo.Types[last].IsNil() {
					pass.Reportf(last.Pos(), "quick.%s with a nil Config draws its cases from a time-seeded source; pass a Config with Rand: rand.New(rand.NewSource(seed))", name)
				}
				return true
			}
			if !isPkgFn || !randPkgs[pkgPath] {
				return true
			}
			switch {
			case name == "New":
				if !hasExplicitSource(pass, call) {
					pass.Reportf(call.Pos(), "rand.New without an explicit rand.NewSource(seed) argument; use the seeded sim.RNG (or rand.New(rand.NewSource(seed)))")
				}
			case !allowed[name]:
				pass.Reportf(call.Pos(), "rand.%s uses the process-global math/rand source, which is not reproducible from a seed; use the seeded sim.RNG", name)
			}
			return true
		})
	}
	return nil
}

// hasExplicitSource reports whether a rand.New call is given a source
// constructed in place from a seed — rand.New(rand.NewSource(x)) or the
// v2 equivalents — rather than some ambient source value.
func hasExplicitSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, isCall := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !isCall {
		return false
	}
	pkgPath, name, isPkgFn := analysis.PkgFuncCall(pass.TypesInfo, inner)
	if !isPkgFn || !randPkgs[pkgPath] {
		return false
	}
	return name == "NewSource" || name == "NewPCG" || name == "NewChaCha8"
}

const quickPkg = "testing/quick"

// checkQuickConfig reports a quick.Config literal that leaves Rand nil.
func checkQuickConfig(pass *analysis.Pass, lit *ast.CompositeLit) {
	if !analysis.IsNamedType(pass.TypesInfo.TypeOf(lit), quickPkg, "Config") {
		return
	}
	for _, elt := range lit.Elts {
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV && kv.Key.(*ast.Ident).Name == "Rand" && !pass.TypesInfo.Types[kv.Value].IsNil() {
			return
		}
	}
	pass.Reportf(lit.Pos(), "quick.Config without Rand draws its cases from a time-seeded source; set Rand: rand.New(rand.NewSource(seed))")
}
