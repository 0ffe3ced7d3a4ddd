// Package syscallname defines the simlint analyzer that closes the
// stringly-typed syscall namespace. Syscall classes are identified by
// string everywhere — guest.Context.Syscall("read"), fault tables,
// the kernel's cost map and the service times it resolves from it per
// machine — and a typo ("sendot") does not fail: the cost lookup
// silently falls back to the default service time, and a
// typo'd fault entry injects nothing while the chaos run reports a
// healthy bill. This analyzer checks every string literal (or
// constant) flowing into those positions against the closed set
// exported by internal/kernel and flags the ones outside it.
//
// A deliberate out-of-namespace name (a test probing the unknown-name
// fallback itself) carries a justified annotation:
//
//	//simlint:syscall-ok probing the default-cost fallback
//	ctx.Syscall("frobnicate")
package syscallname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/annotation"
	"repro/internal/analysis/passes/guestapi"
	"repro/internal/kernel"
)

// Key is the annotation that suppresses a finding, e.g.
// `//simlint:syscall-ok <why>`.
const Key = "syscall-ok"

// Analyzer flags syscall-name strings outside the kernel's closed
// namespace.
var Analyzer = &analysis.Analyzer{
	Name: "syscallname",
	Doc: "flag syscall-name strings outside the kernel's known set\n\n" +
		"Names passed to guest.Context.Syscall, guest.SyscallRetry, the\n" +
		"kernel's cost and fault tables, and SyscallFault.Name must be\n" +
		"members of kernel.KnownSyscallNames(); a typo is otherwise a\n" +
		"silently inert fault or a silently default-priced syscall.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	notes := annotation.New(pass.Fset, pass.Files)

	check := func(expr ast.Expr, context string) {
		if expr == nil {
			return
		}
		tv, ok := pass.TypesInfo.Types[expr]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return // dynamic name: left to runtime validation
		}
		name := constant.StringVal(tv.Value)
		if kernel.IsKnownSyscall(name) {
			return
		}
		if note, ok := notes.At(expr.Pos(), Key); ok {
			if note.Reason == "" {
				pass.Reportf(expr.Pos(), "simlint:%s annotation needs a justification after the key", Key)
			}
			return
		}
		pass.Reportf(expr.Pos(), "unknown syscall name %q in %s (known: %s); fix the typo or annotate //simlint:%s <why>",
			name, context, strings.Join(kernel.KnownSyscallNames(), ", "), Key)
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := guestapi.Callee(pass.TypesInfo, n)
				switch {
				case guestapi.IsContextMethod(fn, "Syscall") && len(n.Args) > 0:
					check(n.Args[0], "guest.Context.Syscall")
				case guestapi.IsGuestFunc(fn, "SyscallRetry") && len(n.Args) > 1:
					check(n.Args[1], "guest.SyscallRetry")
				case fn != nil && guestapi.InKernelPackage(fn) && fn.Name() == "serviceTime" && len(n.Args) > 0:
					check(n.Args[0], "serviceTime")
				case fn != nil && guestapi.InKernelPackage(fn) && fn.Name() == "injectFault" && len(n.Args) > 0:
					check(n.Args[0], "injectFault")
				}
			case *ast.CompositeLit:
				if isSyscallFault(pass.TypesInfo, n) {
					check(faultNameField(n), "SyscallFault.Name")
				}
			case *ast.ValueSpec:
				// The kernel cost table itself (and any fixture twin):
				// its keys define prices, so a typo'd key is dead weight
				// that silently never matches a request.
				for i, name := range n.Names {
					if name.Name != "syscallServiceUs" || i >= len(n.Values) {
						continue
					}
					if lit, ok := n.Values[i].(*ast.CompositeLit); ok {
						for _, elt := range lit.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								check(kv.Key, "the syscall cost table")
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isSyscallFault reports whether the composite literal builds a
// kernel SyscallFault.
func isSyscallFault(info *types.Info, lit *ast.CompositeLit) bool {
	tv := info.TypeOf(lit)
	if tv == nil {
		return false
	}
	named, ok := types.Unalias(tv).(*types.Named)
	if !ok || named.Obj().Name() != "SyscallFault" || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "kernel" || strings.HasSuffix(path, "/kernel")
}

// faultNameField extracts the Name field's value from a SyscallFault
// literal, keyed or positional.
func faultNameField(lit *ast.CompositeLit) ast.Expr {
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Name" {
				return kv.Value
			}
			continue
		}
		if i == 0 {
			return elt // positional: Name is the first field
		}
	}
	return nil
}
