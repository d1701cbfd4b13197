// Command simlint statically enforces the simulator's determinism
// invariants (see internal/analysis): one determinism analyzer (wall
// clock, global rand, map, sync.Map and select order) plus shadow.
//
//	simlint ./...             lint packages and their tests, exit 1 on findings
//	simlint -dir path/to/dir  lint a bare directory (testdata fixtures)
//	simlint -list             print the suite and what each check does
//	simlint -json ./...       print findings as a JSON array on stdout
//
// Findings are suppressed with an in-source directive that names the
// analyzer and MUST carry a reason:
//
//	//lint:allow determinism counters are commutative; order cannot leak
//
// A reasonless directive, or one naming no analyzer of the suite, is
// itself a finding — suppressions are documentation, not an off switch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spdier/internal/analysis"
	"spdier/internal/analysis/simlint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	dir := fs.String("dir", "", "lint a bare directory of Go files instead of package patterns")
	list := fs.Bool("list", false, "describe the analyzer suite and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout instead of text on stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: simlint [-list] [-json] [-dir directory] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range simlint.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	diags, err := lint(*dir, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	return report(diags, *jsonOut)
}

// lint runs the suite over a fixture directory, or else over the
// packages patterns name (./... by default), their tests included.
func lint(dir string, patterns []string) ([]analysis.Diagnostic, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if dir != "" {
		return simlint.CheckDir(dir, cwd)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := simlint.Check(pkgs)
	// Name files relative to the working directory, as go vet does.
	for i, d := range diags {
		if rel, relErr := filepath.Rel(cwd, d.Pos.Filename); relErr == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	return diags, err
}

// jsonDiagnostic is the machine-readable finding shape -json emits.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func report(diags []analysis.Diagnostic, asJSON bool) int {
	if asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		if len(diags) == 0 {
			return 0
		}
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	fmt.Fprintf(os.Stderr, "simlint: %d finding(s); suppress intentional ones with `//lint:allow <analyzer> <reason>`\n", len(diags))
	return 1
}
