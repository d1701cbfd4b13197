package analysis_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spdier/internal/analysis"
	"spdier/internal/analysis/simlint"
)

// TestLoadLintsTestVariants runs Load and the whole suite, unscoped,
// over testdata/testvariants, a module of its own. Its findings sit in
// an in-package _test.go file, in an external _test package that calls
// a function only the test variant exports, and in a plain file that
// both the package and its test variant compile. Every finding must be
// reported, and reported once.
func TestLoadLintsTestVariants(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "testvariants"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	facts := analysis.NewFactStore()
	var got []string
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, simlint.Analyzers, analysis.RunConfig{Facts: facts})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range analysis.ApplySuppressions(pkg.Fset, pkg.Files, diags, simlint.Analyzers) {
			rel, err := filepath.Rel(dir, d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s:%d:%d: %s: %s", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
		}
	}
	slices.Sort(got)
	want := []string{
		"clock/clock.go:8:29: determinism: time.Now is wall-clock time in a deterministic package; read the sim.Loop clock (loop.Now()) instead",
		"clock/clock_test.go:11:11: determinism: time.Now is wall-clock time in a deterministic package; read the sim.Loop clock (loop.Now()) instead",
		"clock/clock_test.go:13:3: determinism: call to Line (fmt.Println) inside range over map reaches an output sink: iteration order is randomized per run; sort the keys first",
		"clock/clock_x_test.go:11:2: determinism: time.Sleep is wall-clock time in a deterministic package; schedule a callback with loop.After instead of blocking",
		"clock/clock_x_test.go:13:3: determinism: call to Dump (fmt.Println) inside range over map reaches an output sink: iteration order is randomized per run; sort the keys first",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
