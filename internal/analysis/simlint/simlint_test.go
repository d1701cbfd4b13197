package simlint_test

import (
	"path/filepath"
	"testing"

	"spdier/internal/analysis/simlint"
)

// TestFixtureTriggersEveryAnalyzer runs the full suite over the seeded
// violation corpus and requires exactly one finding per analyzer. This
// is the canary for the canaries: an analyzer that stops firing here
// has gone silent everywhere.
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
	for _, a := range simlint.Analyzers {
		if got[a.Name] != 1 {
			t.Errorf("analyzer %s: want exactly 1 finding in the fixture, got %d", a.Name, got[a.Name])
		}
	}
	if len(diags) != len(simlint.Analyzers) {
		for _, d := range diags {
			t.Logf("finding: %s", d.String())
		}
		t.Errorf("want %d findings total, got %d", len(simlint.Analyzers), len(diags))
	}
}

// TestForPackagePolicy pins the policy mapping: deterministic packages
// get the determinism analyzers, pooled packages get poolbalance, and
// everything in the module gets shadow.
func TestForPackagePolicy(t *testing.T) {
	names := func(importPath string) map[string]bool {
		as, _ := simlint.ForPackage(importPath)
		out := map[string]bool{}
		for _, a := range as {
			out[a.Name] = true
		}
		return out
	}

	sim := names("spdier/internal/sim")
	for _, want := range []string{"wallclock", "globalrand", "maprange", "poolbalance", "clockarith", "shadow", "dettaint"} {
		if !sim[want] {
			t.Errorf("spdier/internal/sim: missing analyzer %s", want)
		}
	}

	spdy := names("spdier/internal/spdy")
	if !spdy["poolbalance"] || !spdy["shadow"] {
		t.Errorf("spdier/internal/spdy: want poolbalance+shadow, got %v", spdy)
	}
	if spdy["wallclock"] {
		t.Errorf("spdier/internal/spdy: wallclock must not apply outside the deterministic set")
	}

	live := names("spdier/internal/liveproxy")
	if live["wallclock"] || live["globalrand"] {
		t.Errorf("spdier/internal/liveproxy talks to real time by design; got %v", live)
	}
	if !live["shadow"] {
		t.Errorf("spdier/internal/liveproxy: shadow applies module-wide")
	}

	if as := names("fmt"); len(as) != 0 {
		t.Errorf("packages outside the module must get no analyzers, got %v", as)
	}
}

// TestDettaintScoping pins the mute-for-facts policy: dettaint runs
// module-wide so its facts exist everywhere, but its reporting filter
// rejects every file outside the deterministic set (and all but the
// worker-side files inside fabric).
func TestDettaintScoping(t *testing.T) {
	filterFor := func(importPath string) (func(string) bool, bool) {
		as, filters := simlint.ForPackage(importPath)
		for _, a := range as {
			if a.Name == "dettaint" {
				f, has := filters["dettaint"]
				return f, has
			}
		}
		t.Fatalf("%s: dettaint not in suite", importPath)
		return nil, false
	}

	if f, has := filterFor("spdier/internal/experiment"); has && f != nil {
		t.Errorf("experiment: dettaint must report unfiltered in the deterministic set")
	}
	f, has := filterFor("spdier/internal/liveproxy")
	if !has || f == nil {
		t.Fatalf("liveproxy: dettaint must be muted outside the deterministic set")
	}
	if f("proxy.go") {
		t.Errorf("liveproxy: dettaint filter must reject every file (facts only)")
	}
	f, has = filterFor("spdier/internal/fabric")
	if !has || f == nil {
		t.Fatalf("fabric: dettaint must be file-scoped")
	}
	if !f("worker.go") || f("coordinator.go") {
		t.Errorf("fabric: dettaint must report in worker.go but not coordinator.go")
	}
}
