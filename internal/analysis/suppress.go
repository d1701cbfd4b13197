package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// directivePrefix opens a suppression directive:
//
//	//lint:allow <analyzer> <reason...>
//
// The reason is mandatory: a suppression is a reviewed, written-down
// justification, not an off switch. A directive suppresses findings of
// the named analyzer on its own line and, when it stands alone on a
// line, on the next source line below it.
const directivePrefix = "//lint:allow"

// DirectiveAnalyzerName is the pseudo-analyzer name under which
// malformed //lint:allow directives are reported.
const DirectiveAnalyzerName = "lintdirective"

// ApplySuppressions filters diags through the //lint:allow directives
// found in files. It returns the surviving diagnostics plus new
// diagnostics for malformed directives (missing analyzer, missing
// reason, or a name no analyzer of suite carries) — a broken
// suppression must fail the build, not silently suppress nothing. The
// result is position-sorted.
func ApplySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic, suite []*Analyzer) []Diagnostic {
	// fileLine -> analyzers suppressed on that line.
	type key struct {
		file string
		line int
	}
	covering := map[key][]string{}
	var out []Diagnostic

	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowfoo — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					out = append(out, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzerName,
						Message: "//lint:allow needs an analyzer name and a reason"})
					continue
				}
				if len(fields) < 2 {
					out = append(out, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzerName,
						Message: "//lint:allow " + fields[0] + " needs a reason: suppressions document why the finding is acceptable"})
					continue
				}
				if !slices.ContainsFunc(suite, func(a *Analyzer) bool { return a.Name == fields[0] }) {
					out = append(out, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzerName,
						Message: "//lint:allow " + fields[0] + " names no analyzer in the suite: a stale directive suppresses nothing"})
					continue
				}
				covering[key{pos.Filename, pos.Line}] = append(covering[key{pos.Filename, pos.Line}], fields[0])
				// A directive alone on its line shields the line below.
				if onOwnLine(fset, f, c) {
					covering[key{pos.Filename, pos.Line + 1}] = append(covering[key{pos.Filename, pos.Line + 1}], fields[0])
				}
			}
		}
	}

	for _, d := range diags {
		if !slices.Contains(covering[key{d.Pos.Filename, d.Pos.Line}], d.Analyzer) {
			out = append(out, d)
		}
	}
	SortDiagnostics(out)
	return out
}

// onOwnLine reports whether comment c is the only thing on its line
// (no code before it), so it documents the line that follows.
func onOwnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	own := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !own {
			return false
		}
		if _, isFile := n.(*ast.File); !isFile {
			start, end := fset.Position(n.Pos()), fset.Position(n.End())
			// Code starting on the comment's line before it, or ending on
			// that line before it (a trailing `}`), makes it a trailing
			// comment: it shields only its own line, not the next.
			if start.Filename == pos.Filename && start.Line == pos.Line && start.Column < pos.Column {
				own = false
				return false
			}
			if end.Filename == pos.Filename && end.Line == pos.Line && end.Column <= pos.Column {
				own = false
				return false
			}
		}
		return true
	})
	return own
}
