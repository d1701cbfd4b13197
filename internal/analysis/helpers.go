package analysis

import (
	"go/ast"
	"go/types"
)

// PkgFuncCall reports the package path and name of the function a call
// invokes when the callee is a package-qualified identifier
// (pkg.Func(...)); ok is false for method calls, locals and builtins.
func PkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pkgName, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	return pkgName.Imported().Path(), fn.Name(), true
}

// MethodCallName reports the method name of a call on a receiver value
// (x.M(...)); ok is false for package-qualified function calls.
func MethodCallName(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	if s, found := info.Selections[sel]; found && s.Kind() == types.MethodVal {
		return s.Obj().Name(), true
	}
	return "", false
}

// CalleeFunc resolves the function or method a call statically invokes:
// a plain identifier (local or dot-imported function), a
// package-qualified function, or a method on a value. ok is false for
// calls through function values, interface methods resolved
// dynamically, builtins and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, isFn := info.Uses[fun].(*types.Func); isFn {
			return fn, true
		}
	case *ast.SelectorExpr:
		if sel, found := info.Selections[fun]; found && sel.Kind() == types.MethodVal {
			if fn, isFn := sel.Obj().(*types.Func); isFn {
				return fn, true
			}
			return nil, false
		}
		if fn, isFn := info.Uses[fun.Sel].(*types.Func); isFn {
			return fn, true
		}
	}
	return nil, false
}

// IsNamedType reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
