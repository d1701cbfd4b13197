package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"spdier/internal/analysis"
)

// suite is the analyzer set directives may name.
var suite = []*analysis.Analyzer{{Name: "determinism"}, {Name: "shadow"}}

// apply parses src as test.go and filters diags through its directives.
func apply(t *testing.T, src string, diags []analysis.Diagnostic) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return analysis.ApplySuppressions(fset, []*ast.File{f}, diags, suite)
}

func diag(line int, analyzer, msg string) analysis.Diagnostic {
	return analysis.Diagnostic{
		Pos:      token.Position{Filename: "test.go", Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestTrailingDirectiveSuppressesOwnLine(t *testing.T) {
	src := `package p

func f() {
	g() //lint:allow determinism startup banner, outside the simulated clock
}

func g() {}
`
	out := apply(t, src, []analysis.Diagnostic{diag(4, "determinism", "time.Now ...")})
	if len(out) != 0 {
		t.Fatalf("want finding suppressed, got %v", out)
	}
}

func TestOwnLineDirectiveShieldsNextLine(t *testing.T) {
	src := `package p

func f() {
	//lint:allow determinism startup banner, outside the simulated clock
	g()
}

func g() {}
`
	out := apply(t, src, []analysis.Diagnostic{diag(5, "determinism", "time.Now ...")})
	if len(out) != 0 {
		t.Fatalf("want finding suppressed, got %v", out)
	}
}

func TestDirectiveWithoutReasonIsRejected(t *testing.T) {
	src := `package p

func f() {
	g() //lint:allow determinism
}

func g() {}
`
	out := apply(t, src, []analysis.Diagnostic{diag(4, "determinism", "time.Now ...")})
	// The broken directive must surface AND must not suppress anything.
	var sawDirective, sawOriginal bool
	for _, d := range out {
		switch d.Analyzer {
		case analysis.DirectiveAnalyzerName:
			sawDirective = true
			if !strings.Contains(d.Message, "reason") {
				t.Errorf("directive diagnostic does not mention the missing reason: %q", d.Message)
			}
		case "determinism":
			sawOriginal = true
		}
	}
	if !sawDirective {
		t.Errorf("reasonless //lint:allow produced no %s diagnostic: %v", analysis.DirectiveAnalyzerName, out)
	}
	if !sawOriginal {
		t.Errorf("reasonless //lint:allow suppressed the finding anyway: %v", out)
	}
}

func TestDirectiveWithoutAnalyzerIsRejected(t *testing.T) {
	src := `package p

func f() {
	//lint:allow
	g()
}

func g() {}
`
	out := apply(t, src, nil)
	if len(out) != 1 || out[0].Analyzer != analysis.DirectiveAnalyzerName {
		t.Fatalf("want one %s diagnostic, got %v", analysis.DirectiveAnalyzerName, out)
	}
}

func TestDirectiveForOtherAnalyzerDoesNotSuppress(t *testing.T) {
	src := `package p

func f() {
	g() //lint:allow shadow wrong analyzer named here
}

func g() {}
`
	out := apply(t, src, []analysis.Diagnostic{diag(4, "determinism", "time.Now ...")})
	if len(out) != 1 || out[0].Analyzer != "determinism" {
		t.Fatalf("want the determinism finding to survive, got %v", out)
	}
}

func TestTrailingDirectiveDoesNotShieldNextLine(t *testing.T) {
	src := `package p

func f() {
	g() //lint:allow determinism covers this line only
	g()
}

func g() {}
`
	out := apply(t, src, []analysis.Diagnostic{diag(5, "determinism", "time.Now ...")})
	if len(out) != 1 {
		t.Fatalf("want the next-line finding to survive a trailing directive, got %v", out)
	}
}

// TestStaleDirectiveIsRejected: a directive naming an analyzer that is
// not in the suite (a retired one, a typo) surfaces as a finding and
// suppresses nothing.
func TestStaleDirectiveIsRejected(t *testing.T) {
	src := `package p

func f() {
	g() //lint:allow wallclock retired analyzer name
}

func g() {}
`
	out := apply(t, src, []analysis.Diagnostic{diag(4, "determinism", "time.Now ...")})
	var sawDirective, sawOriginal bool
	for _, d := range out {
		switch d.Analyzer {
		case analysis.DirectiveAnalyzerName:
			sawDirective = strings.Contains(d.Message, "wallclock")
		case "determinism":
			sawOriginal = true
		}
	}
	if !sawDirective || !sawOriginal || len(out) != 2 {
		t.Fatalf("want a %s finding naming wallclock and the determinism finding kept, got %v", analysis.DirectiveAnalyzerName, out)
	}
}
