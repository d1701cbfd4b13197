package determinism_test

import (
	"testing"

	"spdier/internal/analysis/analysistest"
	"spdier/internal/analysis/determinism"
	"spdier/internal/analysis/simlint"
)

// TestWallclock: every wall-clock read or timer, through a renamed
// import too; duration arithmetic stays legal.
func TestWallclock(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "clock")
}

// TestGlobalRand: global-source draws, rand.New without an explicit
// source and quick configs without Rand; seeded generators stay legal.
func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "globalsrc")
}

// TestMapRange: the direct effects inside a range over a map, against
// the commutative, keyed-scatter and collect-then-sort shapes.
func TestMapRange(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "maporder")
}

// TestGoldens: order carried across calls — sink calls, ordered
// results, accumulator folds, select, sync.Map.
func TestGoldens(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "taint")
}

// TestSuppressions drives the analyzer through the driver's
// //lint:allow filter: honoured with a reason, ignored for another
// analyzer of the suite, and scoped to a single line for trailing
// directives.
func TestSuppressions(t *testing.T) {
	analysistest.RunSuppressed(t, determinism.Analyzer, simlint.Analyzers, "suppress")
}

// TestSuppression: a //lint:allow determinism directive silences an
// interprocedural finding; its unjustified sibling still fires.
func TestSuppression(t *testing.T) {
	analysistest.RunSuppressed(t, determinism.Analyzer, simlint.Analyzers, "taintallow")
}

// TestCrossPackageFacts proves both fact kinds flow across package
// boundaries: SinkFact (Emit) and OrderedFact (Pick) are exported while
// the helper package is analyzed and consumed analyzing taintx.
func TestCrossPackageFacts(t *testing.T) {
	analysistest.RunWithDeps(t, determinism.Analyzer, "taintx", "tainthelper")
}

// TestLocalBufferIsNotASink guards the locality rule: writing a
// function-local builder inside a map range is invisible outside the
// function, so neither a finding nor a SinkFact should result — the
// Sorted/PrintSorted goldens already pin the cleansing side.
func TestLocalBufferIsNotASink(t *testing.T) {
	pkgs := analysistest.LoadPackages(t, "taintlocal")
	diags := analysistest.Diagnostics(t, determinism.Analyzer, pkgs)
	if len(diags) != 0 {
		t.Fatalf("got %d diagnostics, want none: %v", len(diags), diags)
	}
}
