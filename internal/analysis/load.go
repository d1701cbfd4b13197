package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// exports maps import paths to compiler export-data files: seeded from
// `go list -export` output by Load, filled on demand by LoadDirs.
type exports struct {
	files map[string]string // import path -> export file
	dir   string            // module root to run `go list -export` in on a miss; "" for none
}

// importer returns a go/types importer that reads gc export data
// through e, rewriting each import path through importMap first (a
// test variant's view of its imports). The importer caches what it
// imports, so one serves every package that shares a view.
func (e *exports) importer(fset *token.FileSet, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := e.files[path]
		if !ok && e.dir != "" {
			out, err := runGoList(e.dir, "-export", "-f", "{{.Export}}", path)
			if err != nil {
				return nil, fmt.Errorf("resolving %s: %w", path, err)
			}
			file = strings.TrimSpace(string(out))
			e.files[path] = file
		}
		if file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

func runGoList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool and type-checks every matched
// package from source, test files included, against export data for
// its imports. dir is the module root the patterns are interpreted in.
//
// The plain packages come first, in `go list -deps` order, so each is
// analyzed after its dependencies. Then come the test variants: p's
// in-package tests (p [p.test]) and its external test package
// (p_test [p.test]). Each variant is type-checked against its own
// import map, under its path without the " [p.test]" suffix, and holds
// only the files plain p lacks, so a finding in a file of both is
// reported once; the facts it imports are exported by then, an
// export_test.go function's by p [p.test], which precedes p_test. The
// generated p.test mains are skipped.
func Load(dir string, patterns ...string) ([]*Package, error) {
	out, err := runGoList(dir, append([]string{"-test", "-export", "-deps", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exp := &exports{files: map[string]string{}}
	imp := exp.importer(fset, nil)
	var pkgs []*Package
	var variants []listPackage
	plainFiles := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exp.files[lp.ImportPath] = lp.Export
		}
		path, _, _ := strings.Cut(lp.ImportPath, " [")
		switch {
		case lp.DepOnly, lp.ForTest == "" && strings.HasSuffix(path, ".test"):
			// A dependency outside the patterns, or a generated test main.
		case lp.ForTest != "":
			if path == lp.ForTest || path == lp.ForTest+"_test" {
				variants = append(variants, lp)
			}
		default:
			pkg, err := typeCheck(fset, imp, path, lp.Dir, lp.GoFiles)
			if err != nil {
				return nil, err
			}
			for _, name := range lp.GoFiles {
				plainFiles[filepath.Join(lp.Dir, name)] = true
			}
			pkgs = append(pkgs, pkg)
		}
	}
	for _, lp := range variants {
		path, _, _ := strings.Cut(lp.ImportPath, " [")
		pkg, err := typeCheck(fset, exp.importer(fset, lp.ImportMap), path, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.Files = slices.DeleteFunc(pkg.Files, func(f *ast.File) bool {
			return plainFiles[fset.File(f.Pos()).Name()]
		})
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses and type-checks one package from the named source
// files in dir, resolving imports through imp.
func typeCheck(fset *token.FileSet, imp types.Importer, importPath, dir string, names []string) (*Package, error) {
	var astFiles []*ast.File
	for _, name := range names {
		name = filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      astFiles,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// sourceImporter resolves a fixed set of import paths to packages
// already type-checked from source, delegating everything else (stdlib,
// module packages) to a fallback export-data importer. It is what lets
// one fixture directory import another without either being listable.
type sourceImporter struct {
	pkgs     map[string]*types.Package
	fallback types.Importer
}

func (si *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.pkgs[path]; ok {
		return p, nil
	}
	return si.fallback.Import(path)
}

// LoadDirs type-checks bare directories of Go files that are not
// listable packages (testdata fixtures), in the given order. Each
// directory is one package, importable by the later ones under its base
// name (the analysistest layout, where testdata/src/dep is imported as
// "dep"); every other import resolves through `go list -export` run in
// moduleRoot.
func LoadDirs(moduleRoot string, dirs ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	exp := &exports{files: map[string]string{}, dir: moduleRoot}
	si := &sourceImporter{pkgs: map[string]*types.Package{}, fallback: exp.importer(fset, nil)}
	var pkgs []*Package
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		path := filepath.Base(dir)
		pkg, err := typeCheck(fset, si, path, dir, names)
		if err != nil {
			return nil, err
		}
		si.pkgs[path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
