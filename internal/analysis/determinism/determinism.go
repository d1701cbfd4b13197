// Package determinism guards the promise every simulation result rests
// on: a run is a pure function of (Options, seed). It works from one
// source table of things no seed controls:
//
//   - ambient reads, reported where they stand: the wall clock
//     (time.Now, time.Sleep, timers), the process-global math/rand
//     source, and a testing/quick Config without a Rand;
//   - order sources, where the runtime picks the order: a multi-case
//     select (reported where it stands), and three regions whose body
//     runs in that order — range over a map, range over a map-ordered
//     value, and a sync.Map.Range callback.
//
// Every region kind is checked for one effect set: output (printers,
// writes to a writer that outlives the region), sends on a channel that
// outlives it, appends that outlive the loop, event scheduling,
// accumulator Merge/Fold, and calls into functions carrying a SinkFact.
// A map-ordered value that reaches output outside any region is a
// finding too.
//
// Two facts carry order across calls and package boundaries:
//
//   - SinkFact marks a function whose call has an order-observable
//     effect: it prints, writes a non-local writer, sends on a
//     non-local channel or schedules an event on a non-local queue,
//     directly or via its own callees. Calling one per map entry leaks
//     iteration order.
//   - OrderedFact marks a function whose result carries map order.
//     Ranging over such a result is as nondeterministic as ranging the
//     map.
//
// The collect-then-sort idiom stays clean: an append is ordered by a
// sort/slices call on the same expression after the loop, a value
// passed to sort/slices carries no map order, and a keyed scatter
// (out[k] = append(out[k], v)) commutes.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"spdier/internal/analysis"
)

// SinkFact marks a function whose call emits order-observable output
// or schedules an event.
type SinkFact struct {
	// Via names the underlying effect, e.g. "fmt.Println" or a callee
	// chain like "call to emit (fmt.Println)".
	Via string `json:"via"`
}

// AFact marks SinkFact as an analyzer fact.
func (*SinkFact) AFact() {}

// OrderedFact marks a function returning map-iteration-ordered data.
type OrderedFact struct {
	// Source is the returned expression that carries the order.
	Source string `json:"source"`
}

// AFact marks OrderedFact as an analyzer fact.
func (*OrderedFact) AFact() {}

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "keep deterministic code a pure function of its seed: no wall clock, global math/rand or quick.Config " +
		"without Rand, and no map, sync.Map or select order reaching output, sends, appends, events, " +
		"accumulator merges or sink calls",
	Run: run,
}

// wallClock lists the time functions that read or wait on the wall
// clock, with the sim.Loop replacement each finding suggests. Timer
// constructors are included: their timers fire on real time.
var wallClock = map[string]string{
	"Now":       "read the sim.Loop clock (loop.Now()) instead",
	"Sleep":     "schedule a callback with loop.After instead of blocking",
	"Since":     "subtract sim.Loop timestamps instead",
	"Until":     "subtract sim.Loop timestamps instead",
	"NewTimer":  "use loop.After, which fires on simulated time",
	"NewTicker": "use a rescheduling loop.After callback",
	"After":     "use loop.After, which fires on simulated time",
	"AfterFunc": "use loop.After, which fires on simulated time",
	"Tick":      "use a rescheduling loop.After callback",
}

// randPkgs are the packages whose process-global source is banned.
// seededSource are their constructors of explicit, locally owned
// sources; every other callable there but New (checked for such a
// source) draws from, or perturbs, the global one.
var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

var seededSource = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true, // takes a *Rand: the caller already owns a source
}

const quickPkg = "testing/quick"

// regionKind names a region order source; regionText holds how its
// findings read: "<effect> <context>: <advice>".
type regionKind int

const (
	regMapRange regionKind = iota
	regOrderedRange
	regSyncMapRange
)

var regionText = [...]struct{ context, advice string }{
	regMapRange:     {"inside range over map", "iteration order is randomized per run; sort the keys first"},
	regOrderedRange: {"inside range over map-ordered value", "the order derives from map iteration; sort before iterating"},
	regSyncMapRange: {"inside sync.Map.Range callback", "traversal order is unspecified; snapshot and sort the keys first"},
}

// The effect set. Printers always render output; the Fprint family and
// the write methods (io.Writer, strings.Builder, the repo's Report) only
// when their writer outlives the scope. Schedulers enqueue simulator
// events, reordering every later tiebreak in the event loop. Float
// accumulator folds are non-associative, so fold order changes the bits.
var (
	printers     = map[string]bool{"Print": true, "Printf": true, "Println": true}
	fprinters    = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}
	writeMethods = map[string]bool{
		"Print": true, "Printf": true, "Println": true,
		"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	}
	schedulers   = map[string]bool{"After": true, "At": true, "AtTime": true, "AfterCall": true, "AtCall": true, "Schedule": true, "AfterFunc": true}
	accumMethods = map[string]bool{"Merge": true, "Fold": true}
)

// A region is a body the runtime runs in an order no seed controls.
type region struct {
	kind regionKind
	node ast.Node       // the range statement or callback literal; what it declares is per-region state
	body *ast.BlockStmt // searched for effects
	fn   *ast.BlockStmt // the innermost enclosing function body, searched for sorts after the region
}

type analyzer struct {
	pass    *analysis.Pass
	sinks   map[*types.Func]string // local funcs known to sink, by via
	ordered map[*types.Func]string // local funcs returning ordered data, by source
	seen    map[finding]bool
}

type finding struct {
	pos token.Pos
	msg string
}

// A decl is one function body to analyze; fn is nil for a function
// literal in a package-level initializer, which has no object to carry
// a fact.
type decl struct {
	fn   *types.Func
	body *ast.BlockStmt
}

func run(pass *analysis.Pass) error {
	a := &analyzer{
		pass:    pass,
		sinks:   map[*types.Func]string{},
		ordered: map[*types.Func]string{},
		seen:    map[finding]bool{},
	}
	// Declarations in source order: the fixpoint below must be
	// deterministic so exported fact contents are reproducible.
	var decls []decl
	for _, file := range pass.Files {
		ast.Inspect(file, a.checkSite)
		for _, d := range file.Decls {
			if fd, isFunc := d.(*ast.FuncDecl); isFunc {
				if fn, isFn := pass.TypesInfo.Defs[fd.Name].(*types.Func); isFn && fd.Body != nil {
					decls = append(decls, decl{fn, fd.Body})
				}
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, isLit := n.(*ast.FuncLit); isLit {
					decls = append(decls, decl{nil, lit.Body})
					return false
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if d.fn == nil {
				continue
			}
			via, src := a.analyzeBody(d.body, false)
			if via != "" && a.sinks[d.fn] == "" {
				a.sinks[d.fn] = via
				changed = true
			}
			if src != "" && a.ordered[d.fn] == "" {
				a.ordered[d.fn] = src
				changed = true
			}
		}
	}
	for _, d := range decls {
		if via := a.sinks[d.fn]; via != "" {
			pass.ExportObjectFact(d.fn, &SinkFact{Via: via})
		}
		if src := a.ordered[d.fn]; src != "" {
			pass.ExportObjectFact(d.fn, &OrderedFact{Source: src})
		}
	}
	for _, d := range decls {
		a.analyzeBody(d.body, true)
	}
	return nil
}

// report emits a finding once: nested regions reach the same call.
func (a *analyzer) report(pos token.Pos, format string, args ...any) {
	f := finding{pos, fmt.Sprintf(format, args...)}
	if !a.seen[f] {
		a.seen[f] = true
		a.pass.Reportf(pos, "%s", f.msg)
	}
}

// checkSite reports the sources that are findings where they stand:
// ambient reads and multi-case selects.
func (a *analyzer) checkSite(n ast.Node) bool {
	info := a.pass.TypesInfo
	switch x := n.(type) {
	case *ast.SelectStmt:
		// The runtime picks the winner among ready cases at random,
		// whatever the cases do.
		if len(x.Body.List) >= 2 {
			a.pass.Reportf(x.Select, "select with %d cases resolves nondeterministically: deterministic code must not race channels; make the choice explicit", len(x.Body.List))
		}
	case *ast.CompositeLit:
		if analysis.IsNamedType(info.TypeOf(x), quickPkg, "Config") && !hasRand(info, x) {
			a.pass.Reportf(x.Pos(), "quick.Config without Rand draws its cases from a time-seeded source; set Rand: rand.New(rand.NewSource(seed))")
		}
	case *ast.CallExpr:
		pkg, name, isPkgFn := analysis.PkgFuncCall(info, x)
		switch {
		case !isPkgFn:
		case pkg == "time" && wallClock[name] != "":
			a.pass.Reportf(x.Pos(), "time.%s is wall-clock time in a deterministic package; %s", name, wallClock[name])
		case randPkgs[pkg] && name == "New":
			if !explicitSource(info, x) {
				a.pass.Reportf(x.Pos(), "rand.New without an explicit rand.NewSource(seed) argument; use the seeded sim.RNG (or rand.New(rand.NewSource(seed)))")
			}
		case randPkgs[pkg] && !seededSource[name]:
			a.pass.Reportf(x.Pos(), "rand.%s uses the process-global math/rand source, which is not reproducible from a seed; use the seeded sim.RNG", name)
		case pkg == quickPkg && (name == "Check" || name == "CheckEqual"):
			if last := x.Args[len(x.Args)-1]; info.Types[last].IsNil() {
				a.pass.Reportf(last.Pos(), "quick.%s with a nil Config draws its cases from a time-seeded source; pass a Config with Rand: rand.New(rand.NewSource(seed))", name)
			}
		}
	}
	return true
}

// explicitSource reports whether a rand.New call is given a source
// constructed in place from a seed — rand.New(rand.NewSource(x)) or the
// v2 equivalents — rather than some ambient source value.
func explicitSource(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, isCall := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !isCall {
		return false
	}
	pkg, name, isPkgFn := analysis.PkgFuncCall(info, inner)
	return isPkgFn && randPkgs[pkg] && seededSource[name]
}

// hasRand reports whether a quick.Config literal sets a non-nil Rand.
func hasRand(info *types.Info, lit *ast.CompositeLit) bool {
	for _, elt := range lit.Elts {
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV && kv.Key.(*ast.Ident).Name == "Rand" && !info.Types[kv.Value].IsNil() {
			return true
		}
	}
	return false
}

// isSink resolves whether a called function sinks output, locally or
// through an imported fact.
func (a *analyzer) isSink(fn *types.Func) (string, bool) {
	if via := a.sinks[fn]; via != "" {
		return via, true
	}
	var f SinkFact
	if a.pass.ImportObjectFact(fn, &f) {
		return f.Via, true
	}
	return "", false
}

// isOrdered resolves whether a called function returns map-ordered
// data, locally or through an imported fact.
func (a *analyzer) isOrdered(fn *types.Func) bool {
	if a.ordered[fn] != "" {
		return true
	}
	var f OrderedFact
	return a.pass.ImportObjectFact(fn, &f)
}

// analyzeBody inspects one function. It returns the function's own
// sink/ordered classification, and when report is true also emits the
// in-body diagnostics.
func (a *analyzer) analyzeBody(body *ast.BlockStmt, report bool) (sinkVia, orderedSrc string) {
	info := a.pass.TypesInfo

	// Objects passed to sort/slices anywhere in the body carry no map
	// order: the collect-then-sort idiom restores a deterministic one.
	cleansed := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkg, _, isPkgFn := analysis.PkgFuncCall(info, call); isPkgFn && (pkg == "sort" || pkg == "slices") {
			for _, arg := range call.Args {
				if obj := rootObj(info, arg); obj != nil {
					cleansed[obj] = true
				}
			}
		}
		return true
	})

	// Taint: variables whose order derives from map iteration. Iterated
	// to a fixpoint so chains (v := Keys(m); w := v) propagate.
	tainted := map[types.Object]bool{}
	taintIdent := func(e ast.Expr) bool {
		id, isID := ast.Unparen(e).(*ast.Ident)
		if !isID {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil || cleansed[obj] || tainted[obj] {
			return false
		}
		tainted[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				hot := false
				for _, rhs := range s.Rhs {
					hot = hot || a.exprOrdered(rhs, tainted)
				}
				for _, lhs := range s.Lhs {
					if hot && taintIdent(lhs) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if _, isRegion := a.rangeKind(s, tainted); isRegion {
					for _, v := range []ast.Expr{s.Key, s.Value} {
						if v != nil && taintIdent(v) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	regions := a.regions(body, tainted)
	sinkVia = a.firstSinkEffect(body)
	orderedSrc = a.orderedReturn(body, tainted)
	if !report {
		return sinkVia, orderedSrc
	}

	for _, r := range regions {
		a.reportRegion(r)
	}
	// A map-ordered value reaching output outside any region (inside
	// one, the region's own findings cover it).
	inRegion := func(pos token.Pos) bool {
		for _, r := range regions {
			if r.body.Pos() <= pos && pos <= r.body.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || inRegion(call.Pos()) {
			return true
		}
		hot := false
		for _, arg := range call.Args {
			hot = hot || a.exprOrdered(arg, tainted)
		}
		if !hot {
			return true
		}
		if what, _, isOut := a.output(call, body); isOut {
			a.report(call.Pos(), "%s receives a map-ordered value: sort it before it reaches output", what)
		}
		return true
	})
	return sinkVia, orderedSrc
}

// regions collects the region order sources in fn, each with its
// innermost enclosing function body.
func (a *analyzer) regions(fn *ast.BlockStmt, tainted map[types.Object]bool) []region {
	var out []region
	ast.Inspect(fn, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			out = append(out, a.regions(s.Body, tainted)...)
			return false
		case *ast.RangeStmt:
			if k, isRegion := a.rangeKind(s, tainted); isRegion {
				out = append(out, region{k, s, s.Body, fn})
			}
		case *ast.CallExpr:
			if lit := syncMapRangeCallback(a.pass.TypesInfo, s); lit != nil {
				out = append(out, region{regSyncMapRange, lit, lit.Body, fn})
			}
		}
		return true
	})
	return out
}

// reportRegion emits the findings inside one region: the whole effect
// set, whatever the region kind.
func (a *analyzer) reportRegion(r region) {
	info := a.pass.TypesInfo
	text := regionText[r.kind]
	report := func(pos token.Pos, what, tail string) {
		a.report(pos, "%s %s%s: %s", what, text.context, tail, text.advice)
	}
	sorted := a.sortedAfter(r)
	ast.Inspect(r.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			if a.outlives(s.Chan, r.node) {
				report(s.Pos(), "send on "+types.ExprString(s.Chan), "")
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) || !isAppend(info, rhs) {
					continue
				}
				// Sorting the same expression after the loop restores
				// the order; a key-owned bucket never had one.
				lhs := s.Lhs[i]
				if a.outlives(lhs, r.node) && !sorted[types.ExprString(lhs)] && !a.keyedScatter(lhs, r) {
					report(s.Pos(), "append to "+types.ExprString(lhs), " accumulates in randomized order")
				}
			}
		case *ast.CallExpr:
			if name, isMethod := analysis.MethodCallName(info, s); isMethod && (schedulers[name] || accumMethods[name]) {
				recv := ast.Unparen(s.Fun).(*ast.SelectorExpr).X
				if schedulers[name] {
					report(s.Pos(), types.ExprString(recv)+"."+name+" schedules an event", "")
				} else if a.outlives(recv, r.node) {
					report(s.Pos(), types.ExprString(recv)+"."+name, " folds accumulator state in nondeterministic order")
				}
			} else if what, tail, isOut := a.output(s, r.node); isOut {
				report(s.Pos(), what, tail)
			}
		}
		return true
	})
}

// output classifies a call that makes order observable beyond scope: a
// printer, a write to a writer that outlives scope, or a call into a
// SinkFact function. what names the effect; a sink call also gets a
// tail saying so.
func (a *analyzer) output(call *ast.CallExpr, scope ast.Node) (what, tail string, ok bool) {
	info := a.pass.TypesInfo
	if pkg, name, isPkgFn := analysis.PkgFuncCall(info, call); isPkgFn && pkg == "fmt" &&
		(printers[name] || fprinters[name] && a.outlives(call.Args[0], scope)) {
		return "fmt." + name, "", true
	}
	if name, isMethod := analysis.MethodCallName(info, call); isMethod && writeMethods[name] {
		recv := ast.Unparen(call.Fun).(*ast.SelectorExpr).X
		return types.ExprString(recv) + "." + name, "", a.outlives(recv, scope)
	}
	if fn, isStatic := analysis.CalleeFunc(info, call); isStatic {
		if via, sink := a.isSink(fn); sink {
			return fmt.Sprintf("call to %s (%s)", fn.Name(), via), " reaches an output sink", true
		}
	}
	return "", "", false
}

// firstSinkEffect scans the whole body in source order for the first
// output effect or event scheduled on a queue that outlives the call,
// which becomes the function's SinkFact via.
func (a *analyzer) firstSinkEffect(body *ast.BlockStmt) string {
	via := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if via != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if what, _, isOut := a.output(s, body); isOut {
				via = what
			} else if name, isMethod := analysis.MethodCallName(a.pass.TypesInfo, s); isMethod && schedulers[name] {
				if recv := ast.Unparen(s.Fun).(*ast.SelectorExpr).X; a.outlives(recv, body) {
					via = types.ExprString(recv) + "." + name + " schedules an event"
				}
			}
		case *ast.SendStmt:
			if a.outlives(s.Chan, body) {
				via = "send on " + types.ExprString(s.Chan)
			}
		}
		return via == ""
	})
	return via
}

// orderedReturn finds the first returned result that carries map order,
// which becomes the function's OrderedFact source. `return 1` inside a
// map range is still deterministic; a closure's returns are its own.
func (a *analyzer) orderedReturn(body *ast.BlockStmt, tainted map[types.Object]bool) string {
	src := ""
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if src == "" && a.exprOrdered(res, tainted) {
					src = "returns " + types.ExprString(res)
				}
			}
		}
		return src == ""
	})
	return src
}

// exprOrdered reports whether an expression's value carries map
// iteration order: it mentions a tainted variable or calls an
// OrderedFact function. len/cap of a tainted value are order-free, and
// so is a function literal: its body's order is checked as its own.
func (a *analyzer) exprOrdered(e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			found = found || tainted[a.pass.TypesInfo.Uses[x]]
		case *ast.CallExpr:
			if id, isID := ast.Unparen(x.Fun).(*ast.Ident); isID && (id.Name == "len" || id.Name == "cap") {
				if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return false
				}
			}
			if fn, isStatic := analysis.CalleeFunc(a.pass.TypesInfo, x); isStatic && a.isOrdered(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

// rangeKind classifies a range statement as a region: over a map, or
// over a map-ordered value.
func (a *analyzer) rangeKind(rng *ast.RangeStmt, tainted map[types.Object]bool) (regionKind, bool) {
	if t := a.pass.TypesInfo.TypeOf(rng.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			return regMapRange, true
		}
	}
	return regOrderedRange, a.exprOrdered(rng.X, tainted)
}

// syncMapRangeCallback returns the callback literal of a
// m.Range(func(k, v any) bool {...}) call on a sync.Map, or nil.
func syncMapRangeCallback(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	if name, isMethod := analysis.MethodCallName(info, call); !isMethod || name != "Range" || len(call.Args) != 1 {
		return nil
	}
	if !analysis.IsNamedType(info.TypeOf(ast.Unparen(call.Fun).(*ast.SelectorExpr).X), "sync", "Map") {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[0]).(*ast.FuncLit)
	return lit
}

// sortedAfter collects the rendered form of every expression passed to
// sort/slices after the region in its enclosing function: the targets
// of the collect-then-sort idiom.
func (a *analyzer) sortedAfter(r region) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(r.fn, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < r.node.End() {
			return true
		}
		if pkg, _, isPkgFn := analysis.PkgFuncCall(a.pass.TypesInfo, call); isPkgFn && (pkg == "sort" || pkg == "slices") {
			for _, arg := range call.Args {
				out[types.ExprString(ast.Unparen(arg))] = true
			}
		}
		return true
	})
	return out
}

// keyedScatter reports whether lhs is an index expression whose index
// mentions a variable the region's header declares (the range key or
// value, the callback's parameters): every iteration then writes its
// own bucket, so the buckets commute.
func (a *analyzer) keyedScatter(lhs ast.Expr, r region) bool {
	idx, isIdx := ast.Unparen(lhs).(*ast.IndexExpr)
	if !isIdx {
		return false
	}
	found := false
	ast.Inspect(idx.Index, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID {
			if obj := a.pass.TypesInfo.Uses[id]; obj != nil && r.node.Pos() <= obj.Pos() && obj.Pos() < r.body.Pos() {
				found = true
			}
		}
		return !found
	})
	return found
}

// outlives reports whether the storage e names can outlive scope. Only
// an identifier (or its address) declared inside scope is confined to
// it; anything reached through a field, index or pointer may alias
// outer storage. An unresolvable name counts as confined, so the check
// errs towards no finding.
func (a *analyzer) outlives(e ast.Expr, scope ast.Node) bool {
	e = ast.Unparen(e)
	if u, isUnary := e.(*ast.UnaryExpr); isUnary && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, isID := e.(*ast.Ident)
	if !isID {
		return true
	}
	obj := a.pass.TypesInfo.ObjectOf(id)
	return obj != nil && (obj.Pos() < scope.Pos() || obj.Pos() > scope.End())
}

// isAppend reports whether e is a call to the append builtin.
func isAppend(info *types.Info, e ast.Expr) bool {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false
	}
	id, isID := ast.Unparen(call.Fun).(*ast.Ident)
	if !isID {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// rootObj unwraps an expression to its base identifier's object:
// x.f[i] → x, (&x) → x.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
