// Command simlint statically enforces the simulator's determinism and
// pool-discipline invariants (see internal/analysis): one determinism
// analyzer (wall clock, global rand, map, sync.Map and select order)
// plus poolbalance, clockarith and shadow.
//
// Standalone:
//
//	simlint ./...             lint packages, exit 1 on findings
//	simlint -dir path/to/dir  lint a bare directory (testdata fixtures)
//	simlint -list             print the suite and what each check does
//
// As a vet tool (the unitchecker protocol: cmd/go invokes the tool once
// per package with a JSON config file, export data for every import,
// and expects diagnostics on stderr and a nonzero exit):
//
//	go vet -vettool=$(go env GOPATH)/bin/simlint ./...
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
	"go/token"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spdier/internal/analysis"
	"spdier/internal/analysis/simlint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Vet-tool protocol probes arrive before normal flag parsing:
	// cmd/go asks for a version fingerprint (cache key) and the tool's
	// flag set before handing over .cfg files.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			// cmd/go keys its vet-result cache on this line; derive it
			// from the binary's contents so rebuilt analyzers invalidate
			// stale cached findings.
			fmt.Printf("simlint version %s\n", buildFingerprint())
			return 0
		}
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitcheck(args[0])
	}

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
	if *dir != "" {
		moduleRoot, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		diags, err := simlint.CheckDir(*dir, moduleRoot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		return report(diags, *jsonOut)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	// One store for the whole run: Load returns packages in go list
	// -deps order (dependencies first), so by the time a package is
	// analyzed every dependency's facts are already in the store.
	facts := analysis.NewFactStore()
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := simlint.CheckFacts(pkg, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		all = append(all, diags...)
	}
	return report(all, *jsonOut)
}

// buildFingerprint hashes this executable so the version string (and
// with it cmd/go's vet cache key) changes whenever the suite does.
func buildFingerprint() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%x", h.Sum64())
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

// vetConfig is the unitchecker config cmd/go writes for -vettool
// invocations (a stable, documented subset of its fields). PackageVetx
// maps each dependency's import path to the facts file a previous unit
// wrote; VetxOutput is where this unit must write its own.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck runs one vet unit of work. Diagnostics go to stderr in the
// standard file:line:col form; exit status 2 signals findings to
// cmd/go. Facts make this a two-way protocol: the store is seeded from
// every dependency's .vetx file before the suite runs, and whatever the
// fact analyzers export is serialized to VetxOutput afterwards — which
// is why a VetxOnly unit (a dependency vetted only for its facts) still
// runs the suite; it merely suppresses the diagnostics.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: bad vet config %s: %v\n", cfgPath, err)
		return 1
	}
	simlint.RegisterFactTypes()
	facts := analysis.NewFactStore()
	for _, path := range sortedKeys(cfg.PackageVetx) {
		// A dependency outside the module wrote no facts (or an older
		// simlint wrote a placeholder); Decode ignores unrecognized
		// content, and a vanished file is treated the same way.
		vetx, readErr := os.ReadFile(cfg.PackageVetx[path])
		if readErr != nil {
			continue
		}
		if decErr := facts.Decode(vetx); decErr != nil {
			fmt.Fprintf(os.Stderr, "simlint: facts of %s: %v\n", path, decErr)
			return 1
		}
	}
	writeFacts := func() int {
		if cfg.VetxOutput == "" {
			return 0
		}
		encoded, encErr := facts.Encode()
		if encErr == nil {
			encErr = os.WriteFile(cfg.VetxOutput, encoded, 0o666)
		}
		if encErr != nil {
			fmt.Fprintln(os.Stderr, "simlint:", encErr)
			return 1
		}
		return 0
	}
	analyzers, _ := simlint.ForPackage(cfg.ImportPath)
	if len(analyzers) == 0 {
		return writeFacts()
	}
	var files []string
	for _, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		files = append(files, f)
	}
	fset := token.NewFileSet()
	lookup := analysis.NewExportLookup(cfg.PackageFile, cfg.ImportMap, false, cfg.Dir)
	pkg, err := analysis.TypeCheck(fset, lookup.Importer(fset), cfg.ImportPath, cfg.Dir, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeFacts()
		}
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	pkg.ImportPath = cfg.ImportPath
	diags, err := simlint.CheckFacts(pkg, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	if code := writeFacts(); code != 0 {
		return code
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return 2
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
