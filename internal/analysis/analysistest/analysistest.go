// Package analysistest is a stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis/analysistest golden-test harness: a
// test package under testdata/src/<name> annotates the lines where an
// analyzer must fire with trailing expectation comments,
//
//	time.Sleep(d) // want `time\.Sleep is wall-clock`
//
// and the harness fails on any unexpected diagnostic, any unmatched
// expectation, or any message not matching its regexp. Expectations are
// quoted Go strings or backquoted regexps; several may follow one want.
package analysistest

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spdier/internal/analysis"
)

// Run loads testdata/src/<pkgdir> (relative to the calling test's
// directory), runs the analyzer, and checks raw diagnostics against
// the // want annotations.
func Run(t *testing.T, a *analysis.Analyzer, pkgdir string) {
	t.Helper()
	check(t, a, pkgdir, nil)
}

// RunSuppressed is Run with //lint:allow suppression filtering applied
// first, directives naming analyzers of suite — what the simlint driver
// reports. Malformed directives surface as "lintdirective" diagnostics
// and may carry their own want.
func RunSuppressed(t *testing.T, a *analysis.Analyzer, suite []*analysis.Analyzer, pkgdir string) {
	t.Helper()
	check(t, a, pkgdir, suite)
}

// check runs a over testdata/src/<pkgdir> and matches its wants; a
// non-nil suite applies suppressions first.
func check(t *testing.T, a *analysis.Analyzer, pkgdir string, suite []*analysis.Analyzer) {
	t.Helper()
	pkg := LoadPackages(t, pkgdir)[0]
	diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a}, analysis.RunConfig{})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	if suite != nil {
		diags = analysis.ApplySuppressions(pkg.Fset, pkg.Files, diags, suite)
	}
	matchAll(t, collectWants(t, pkg), diags)
}

// RunWithDeps is Run for analyzers that communicate through facts: it
// loads the named dependency packages (testdata/src/<dep>, importable
// by the target package as plain "<dep>") in order, runs the analyzer
// over each with one shared fact store — so facts exported while
// analyzing a dep are visible when the target is analyzed, exactly as
// in a dependency-ordered driver run — then runs the target.
// Diagnostics in dependency files are checked against their own
// // want annotations.
func RunWithDeps(t *testing.T, a *analysis.Analyzer, pkgdir string, deps ...string) {
	t.Helper()
	pkgs := LoadPackages(t, pkgdir, deps...)
	all := Diagnostics(t, a, pkgs)
	wants := map[string][]*want{}
	for _, pkg := range pkgs {
		for k, v := range collectWants(t, pkg) {
			wants[k] = append(wants[k], v...)
		}
	}
	matchAll(t, wants, all)
}

// LoadPackages loads testdata/src/<dep> for each dep, then
// testdata/src/<pkgdir>, returning them in that (dependency) order.
// Deps are importable by the later packages under their bare names.
func LoadPackages(t *testing.T, pkgdir string, deps ...string) []*analysis.Package {
	t.Helper()
	var dirs []string
	for _, name := range append(slices.Clip(deps), pkgdir) {
		dirs = append(dirs, filepath.Join("testdata", "src", name))
	}
	pkgs, err := analysis.LoadDirs(moduleRoot(t), dirs...)
	if err != nil {
		t.Fatalf("loading %v: %v", dirs, err)
	}
	return pkgs
}

// Diagnostics runs the analyzer over pkgs in order with one shared fact
// store and returns the combined diagnostics, position-sorted.
func Diagnostics(t *testing.T, a *analysis.Analyzer, pkgs []*analysis.Package) []analysis.Diagnostic {
	t.Helper()
	facts := analysis.NewFactStore()
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a}, analysis.RunConfig{Facts: facts})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		all = append(all, diags...)
	}
	analysis.SortDiagnostics(all)
	return all
}

// matchAll checks collected diagnostics against collected expectations:
// every diagnostic must match a want on its line, every want must be
// matched by some diagnostic.
func matchAll(t *testing.T, wants map[string][]*want, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if !matchWant(wants[key], d.Message) {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("no diagnostic matched want %q at %s", w.re.String(), key)
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// matchWant marks and reports the first unmatched expectation on the
// line whose regexp matches the message.
func matchWant(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile("// want ((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")
var expectationRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses the // want annotations of every file in pkg,
// keyed by "filename:line".
func collectWants(t *testing.T, pkg *analysis.Package) map[string][]*want {
	t.Helper()
	out := map[string][]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				collectComment(t, pkg, c, out)
			}
		}
	}
	return out
}

func collectComment(t *testing.T, pkg *analysis.Package, c *ast.Comment, out map[string][]*want) {
	t.Helper()
	m := wantRE.FindStringSubmatch(c.Text)
	if m == nil {
		return
	}
	pos := pkg.Fset.Position(c.Pos())
	key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	for _, quoted := range expectationRE.FindAllString(m[1], -1) {
		var pattern string
		if strings.HasPrefix(quoted, "`") {
			pattern = strings.Trim(quoted, "`")
		} else {
			unq, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("%s: bad want expectation %s: %v", key, quoted, err)
			}
			pattern = unq
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", key, pattern, err)
		}
		out[key] = append(out[key], &want{re: re})
	}
}

// moduleRoot walks up from the test's working directory to the
// enclosing go.mod — import resolution for testdata packages runs from
// there.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
