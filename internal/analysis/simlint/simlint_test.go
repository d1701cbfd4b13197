package simlint_test

import (
	"path/filepath"
	"slices"
	"testing"

	"spdier/internal/analysis/simlint"
)

// TestFixtureTriggersEveryAnalyzer runs the full suite over the seeded
// violation corpus and requires exactly one finding per rule: four
// determinism sources (wall clock, global rand, a map range printing,
// a sink call under a map range) and one shadow.
// This is the canary for the canaries: an analyzer or rule that stops
// firing here has gone silent everywhere.
func TestFixtureTriggersEveryAnalyzer(t *testing.T) {
	dir := filepath.Join("..", "testdata", "fixture")
	moduleRoot := filepath.Join("..", "..", "..")
	diags, err := simlint.CheckDir(dir, moduleRoot)
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	got := map[string]int{}
	for _, d := range diags {
		got[d.Analyzer]++
	}
	want := map[string]int{"determinism": 4, "shadow": 1}
	total := 0
	for _, a := range simlint.Analyzers {
		total += want[a.Name]
		if got[a.Name] != want[a.Name] {
			t.Errorf("analyzer %s: want %d findings in the fixture, got %d", a.Name, want[a.Name], got[a.Name])
		}
	}
	if len(diags) != total || total != 5 {
		for _, d := range diags {
			t.Logf("finding: %s", d.String())
		}
		t.Errorf("want 5 findings total, got %d", len(diags))
	}
}

// TestForPackagePolicy pins the policy mapping: every package in the
// module gets the whole suite (determinism, reporting or for its facts,
// and shadow), and packages outside it get nothing.
func TestForPackagePolicy(t *testing.T) {
	for _, pkg := range []string{"spdier/internal/sim", "spdier/internal/spdy", "spdier/internal/liveproxy", "spdier/internal/fabric"} {
		as, _ := simlint.ForPackage(pkg)
		if !slices.Equal(as, simlint.Analyzers) {
			t.Errorf("%s: want the whole suite, got %d analyzers", pkg, len(as))
		}
	}
	if as, _ := simlint.ForPackage("fmt"); len(as) != 0 {
		t.Errorf("packages outside the module must get no analyzers, got %d", len(as))
	}
}

// TestDeterminismScoping pins the one scope per package: determinism
// runs module-wide so its facts exist everywhere, reports unfiltered in
// the deterministic set, only in the worker-side files inside fabric,
// and nowhere else.
func TestDeterminismScoping(t *testing.T) {
	filterFor := func(importPath string) (func(string) bool, bool) {
		as, filters := simlint.ForPackage(importPath)
		for _, a := range as {
			if a.Name == "determinism" {
				f, has := filters["determinism"]
				return f, has
			}
		}
		t.Fatalf("%s: determinism not in suite", importPath)
		return nil, false
	}

	for _, pkg := range simlint.DeterministicPackages {
		if f, has := filterFor(pkg); has && f != nil {
			t.Errorf("%s: determinism must report unfiltered in the deterministic set", pkg)
		}
	}
	f, has := filterFor("spdier/internal/liveproxy")
	if !has || f == nil {
		t.Fatalf("liveproxy: determinism must be muted outside the deterministic set")
	}
	if f("proxy.go") {
		t.Errorf("liveproxy: determinism filter must reject every file (facts only)")
	}
	f, has = filterFor("spdier/internal/fabric")
	if !has || f == nil {
		t.Fatalf("fabric: determinism must be file-scoped")
	}
	for _, base := range []string{"worker.go", "wire.go", "journal.go"} {
		if !f(base) {
			t.Errorf("fabric: determinism must report in %s", base)
		}
	}
	if f("coordinator.go") {
		t.Errorf("fabric: determinism must not report in coordinator.go")
	}
}
