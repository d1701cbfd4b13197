// Package poolbalance enforces pool discipline on the hot-path object
// pools: tcpsim's segment and packet pool (an endpoint's newSeg/newPkt,
// audited dynamically by Network.LiveSegments), sim's event-slot pool
// (allocSlot/freeSlot, the arena behind every Timer), and the sync.Pool
// recycling in spdy/stats.
// Two static checks complement the runtime audit:
//
//  1. An acquired pooled object must be consumed: a newSeg() or
//     pool.Get() whose result is discarded, or bound to a variable that
//     is never used again, can never be released — the leak exists at
//     the acquisition site, before any test runs.
//  2. A sync.Pool must be used symmetrically within its package: a pool
//     with Get calls but no Put anywhere (or vice versa) defeats
//     recycling entirely and usually means a release path was lost in a
//     refactor.
//
// These are deliberately acquisition-site heuristics, not an escape
// analysis: a conditional path that drops a consumed segment is caught
// by the LiveSegments audit at run time, not here.
package poolbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"spdier/internal/analysis"
)

// Analyzer is the poolbalance check.
var Analyzer = &analysis.Analyzer{
	Name: "poolbalance",
	Doc: "flag pool acquisitions whose result is discarded or never consumed, and sync.Pool " +
		"variables with asymmetric Get/Put usage",
	Run: run,
}

// poolUse tallies Get/Put calls against one sync.Pool variable.
type poolUse struct {
	decl token.Pos
	name string
	gets int
	puts int
}

func run(pass *analysis.Pass) error {
	pools := map[types.Object]*poolUse{}
	for _, file := range pass.Files {
		collectPoolDecls(pass, file, pools)
	}
	for _, file := range pass.Files {
		checkFile(pass, file, pools)
	}
	reportAsymmetry(pass, pools)
	return nil
}

func checkFile(pass *analysis.Pass, file *ast.File, pools map[types.Object]*poolUse) {
	handled := map[*ast.CallExpr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, isCall := ast.Unparen(stmt.X).(*ast.CallExpr); isCall {
				handled[call] = true
				if name, poolObj, isAcq := acquisition(pass, call); isAcq {
					tally(pools, poolObj)
					pass.Reportf(call.Pos(), "result of %s discarded: the acquired object can never be released back to the pool", name)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
					handled[call] = true
					checkAssignedAcquisition(pass, file, stmt, i, call, pools)
				}
			}
		case *ast.CallExpr:
			// Acquisitions embedded in larger expressions (arguments,
			// returns, composites) are consumed by construction: tally
			// the pool traffic, report nothing.
			if !handled[stmt] {
				if _, poolObj, isAcq := acquisition(pass, stmt); isAcq {
					tally(pools, poolObj)
				}
			}
			if poolObj, isPut := putCall(pass, stmt); isPut {
				if use := pools[poolObj]; use != nil {
					use.puts++
				}
			}
		}
		return true
	})
}

// checkAssignedAcquisition handles `v := pool.Get()` / `seg := c.newSeg()`:
// v must be mentioned again after the acquisition.
func checkAssignedAcquisition(pass *analysis.Pass, file *ast.File, stmt *ast.AssignStmt, i int, call *ast.CallExpr, pools map[types.Object]*poolUse) {
	name, poolObj, isAcq := acquisition(pass, call)
	if !isAcq {
		return
	}
	tally(pools, poolObj)
	if len(stmt.Lhs) <= i {
		return
	}
	id, isID := ast.Unparen(stmt.Lhs[i]).(*ast.Ident)
	if !isID || id.Name == "_" {
		if isID {
			pass.Reportf(call.Pos(), "result of %s assigned to _: the acquired object can never be released back to the pool", name)
		}
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if !usedAfter(pass, file, obj, stmt.End()) {
		pass.Reportf(call.Pos(), "%s acquired from %s is never used afterwards: it can never be released back to the pool", id.Name, name)
	}
}

// acquisition reports whether call acquires a pooled object — a method
// or function named newSeg, newPkt or allocSlot (the segment, packet
// and event-slot pools), or Get on a sync.Pool. For sync.Pool Get calls on a plain
// identifier it also returns the pool variable.
func acquisition(pass *analysis.Pass, call *ast.CallExpr) (name string, pool types.Object, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "newSeg", "newPkt", "allocSlot":
		return types.ExprString(sel), nil, true
	case "Get":
		recv := pass.TypesInfo.Types[sel.X].Type
		if recv == nil || !analysis.IsNamedType(recv, "sync", "Pool") {
			return "", nil, false
		}
		if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
			pool = pass.TypesInfo.Uses[id]
		}
		return types.ExprString(sel), pool, true
	}
	return "", nil, false
}

// putCall reports whether call is a sync.Pool Put, returning the pool
// variable when the receiver is a plain identifier.
func putCall(pass *analysis.Pass, call *ast.CallExpr) (types.Object, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Put" {
		return nil, false
	}
	recv := pass.TypesInfo.Types[sel.X].Type
	if recv == nil || !analysis.IsNamedType(recv, "sync", "Pool") {
		return nil, false
	}
	if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
		return pass.TypesInfo.Uses[id], true
	}
	return nil, true
}

// usedAfter reports whether obj is referenced anywhere in file after
// pos. A single later mention counts as consumption: the object reached
// a release path, a container, a caller or the wire. Conditional leaks
// beyond that are the runtime pool audit's job.
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

// collectPoolDecls records every package-level sync.Pool variable so
// Get/Put traffic can be tallied against its declaration.
func collectPoolDecls(pass *analysis.Pass, file *ast.File, pools map[types.Object]*poolUse) {
	for _, decl := range file.Decls {
		gd, isGen := decl.(*ast.GenDecl)
		if !isGen || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, isVS := spec.(*ast.ValueSpec)
			if !isVS {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj != nil && analysis.IsNamedType(obj.Type(), "sync", "Pool") {
					pools[obj] = &poolUse{decl: name.Pos(), name: name.Name}
				}
			}
		}
	}
}

func tally(pools map[types.Object]*poolUse, obj types.Object) {
	if obj == nil {
		return
	}
	if use := pools[obj]; use != nil {
		use.gets++
	}
}

// reportAsymmetry flags pools whose package never Puts what it Gets (or
// never Gets what it Puts) — in deterministic declaration order.
func reportAsymmetry(pass *analysis.Pass, pools map[types.Object]*poolUse) {
	var uses []*poolUse
	for _, use := range pools {
		uses = append(uses, use)
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].decl < uses[j].decl })
	for _, use := range uses {
		switch {
		case use.gets > 0 && use.puts == 0:
			pass.Reportf(use.decl, "sync.Pool %s has Get calls but no Put in this package: nothing is ever recycled (lost release path?)", use.name)
		case use.puts > 0 && use.gets == 0:
			pass.Reportf(use.decl, "sync.Pool %s has Put calls but no Get in this package: recycled objects are never reused", use.name)
		}
	}
}
