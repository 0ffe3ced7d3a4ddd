// Package syscallname defines the simlint analyzer that checks the
// syscall names guest code and fault specs still spell as strings.
// The kernel names each syscall class once, in its syscall table, and
// charges and rolls faults by class number; but a guest posts
// guest.Context.Syscall("read") by name, and a SyscallFault names its
// class. A typo there ("sendot") fails only at run time: the kernel
// panics on the post, and kernel.Config.Validate rejects the fault
// spec. This analyzer moves both failures to lint time, checking every
// string literal (or constant) in those two positions against the
// closed set exported by internal/kernel.
//
// A deliberate out-of-namespace name (a test probing the rejection
// itself) carries a justified annotation:
//
//	//simlint:syscall-ok the rejection of this typo is the property under test
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
		"Names passed to guest.Context.Syscall and SyscallFault.Name must\n" +
		"be members of kernel.KnownSyscallNames(); a typo otherwise fails\n" +
		"only at run time, as a kernel panic or a rejected fault spec.",
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
				if guestapi.IsContextMethod(fn, "Syscall") && len(n.Args) > 0 {
					check(n.Args[0], "guest.Context.Syscall")
				}
			case *ast.CompositeLit:
				if isSyscallFault(pass.TypesInfo, n) {
					check(faultNameField(n), "SyscallFault.Name")
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
