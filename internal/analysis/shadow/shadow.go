// Package shadow is a stdlib-only port of the x/tools `shadow` vet
// check (which the offline build cannot fetch). It reports an inner
// `:=` or var declaration that reuses the name of a variable from an
// enclosing scope in the same function when the outer variable is still
// used after the inner scope closes and both have the same type — the
// pattern where `err := ...` inside a block silently stops updating the
// `err` the function returns. Shadows whose outer variable is never
// touched again are deliberate narrowing and stay quiet.
//
// It runs module-wide because it guards what no golden report reaches:
// liveproxy, validate, httpwire, cmd/* and the fabric coordinator. Its
// one true finding so far was there — a shadowed err in a liveproxy
// test that could mask a failed stream setup.
package shadow

import (
	"go/ast"
	"go/token"
	"go/types"

	"spdier/internal/analysis"
)

// Analyzer is the shadow check.
var Analyzer = &analysis.Analyzer{
	Name: "shadow",
	Doc: "report declarations that shadow a same-typed variable from an enclosing scope which is " +
		"still used after the inner scope ends",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		inits := initStatements(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				// `if err := f(); ...` / `for i := 0; ...`: the declared
				// variable cannot outlive the statement it initializes, so
				// the shadow is self-contained and idiomatic.
				if stmt.Tok == token.DEFINE && !inits[stmt] {
					for _, lhs := range stmt.Lhs {
						if id, isID := lhs.(*ast.Ident); isID {
							checkShadow(pass, file, id)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range stmt.Specs {
					if vs, isVS := spec.(*ast.ValueSpec); isVS {
						for _, id := range vs.Names {
							checkShadow(pass, file, id)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// initStatements collects the Init statements of if/for/switch — their
// declarations are scoped to the statement by construction.
func initStatements(file *ast.File) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if s.Init != nil {
				out[s.Init] = true
			}
		case *ast.ForStmt:
			if s.Init != nil {
				out[s.Init] = true
			}
		case *ast.SwitchStmt:
			if s.Init != nil {
				out[s.Init] = true
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				out[s.Init] = true
			}
		}
		return true
	})
	return out
}

func checkShadow(pass *analysis.Pass, file *ast.File, id *ast.Ident) {
	if id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		return
	}
	inner := obj.Parent()
	if inner == nil || inner.Parent() == nil {
		return
	}
	// Look the name up from just above the inner declaration's scope.
	_, outerObj := inner.Parent().LookupParent(id.Name, obj.Pos())
	outer, isVar := outerObj.(*types.Var)
	if !isVar || outer == obj {
		return
	}
	// Only intra-function shadows: the outer variable must be local
	// (file-scope/package-scope globals are a different discussion) and
	// declared before the inner one.
	if outer.Parent() == nil || outer.Parent() == pass.Pkg.Scope() || outer.Parent() == types.Universe {
		return
	}
	if outer.Pos() >= obj.Pos() {
		return
	}
	if !types.Identical(outer.Type(), obj.Type()) {
		return
	}
	// The bug signature: the outer variable is used again after the
	// shadowing scope has ended, so a write meant for it was lost.
	if !usedAfter(pass, file, outer, inner.End()) {
		return
	}
	pass.Reportf(id.Pos(), "declaration of %q shadows a same-typed variable at line %d that is used after this scope ends",
		id.Name, pass.Fset.Position(outer.Pos()).Line)
}

func usedAfter(pass *analysis.Pass, file *ast.File, obj types.Object, pos token.Pos) bool {
	used := false
	ast.Inspect(file, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, isID := n.(*ast.Ident); isID && id.Pos() > pos && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return true
	})
	return used
}
