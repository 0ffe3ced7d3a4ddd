// Package guestapi recognizes call sites of the guest programming
// interface (guest.Context methods and the package-level retry
// wrappers) from type information. The errnocheck and syscallname
// analyzers share it. Matching is by package-path tail ("guest") and
// receiver type name ("Context") rather than the full module path,
// so analyzer fixtures can declare a miniature guest package and be
// checked by the very same logic as the real tree.
package guestapi

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathMatches reports whether a package path is the named package or
// ends with "/<name>".
func pathMatches(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// Callee resolves the *types.Func a call invokes, or nil for dynamic
// calls, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsContextMethod reports whether fn is the guest Context method with
// the given name (interface or concrete implementation named Context
// in a guest package).
func IsContextMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), "guest") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Context"
}

// IsGuestFunc reports whether fn is the package-level guest function
// with the given name (the retry wrappers).
func IsGuestFunc(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), "guest") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
