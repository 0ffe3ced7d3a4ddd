// Package gotime defines the simlint analyzer that keeps real
// concurrency out of the simulator's deterministic packages. The
// simulator models thousands of tasks, but the model itself must
// execute as one deterministic event loop: a stray goroutine or
// channel in model code introduces host-scheduler ordering into state
// the replay goldens assert is a pure function of the seed. No file in
// the deterministic scope may use go statements, channels, select, or
// the sync package — the kernel's own engine included, which runs
// blocking guests on coroutines (iter.Pull) rather than goroutines —
// and calls that transitively reach concurrency (via the callsummary
// facts) are flagged too.
//
// Deliberate concurrency in the scope — the experiment campaign
// runner's worker pool, which parallelizes independent seeded runs
// and merges their outputs in deterministic order — is suppressed
// with justified //simlint:gotime-ok annotations.
package gotime

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/annotation"
	"repro/internal/analysis/detscope"
	"repro/internal/analysis/passes/callsummary"
	"repro/internal/analysis/passes/guestapi"
)

// Key is the annotation that suppresses a finding, e.g.
// `//simlint:gotime-ok <why>`.
const Key = "gotime-ok"

// Analyzer flags concurrency in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "gotime",
	Doc: "flag goroutines and channel operations in deterministic packages\n\n" +
		"Deterministic packages run under the kernel's cooperative scheduler;\n" +
		"real goroutines, channels, select, and sync do not belong there.\n" +
		"Calls that reach concurrency in helper packages are flagged at the\n" +
		"call site via callsummary facts. Suppress a deliberate use with a\n" +
		"justified //simlint:gotime-ok annotation.",
	Requires: []*analysis.Analyzer{callsummary.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if !detscope.Deterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	notes := annotation.New(pass.Fset, pass.Files)
	sums := pass.ResultOf[callsummary.Analyzer].(*callsummary.Result)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if desc, ok := callsummary.ConcOp(pass.TypesInfo, n); ok {
				if note, found := notes.At(n.Pos(), Key); found {
					if note.Reason == "" {
						pass.Reportf(n.Pos(), "simlint:%s annotation needs a justification after the key", Key)
					}
					return true
				}
				pass.Reportf(n.Pos(), "%s in a deterministic package; schedule through the kernel's event loop, or annotate //simlint:%s <why>", desc, Key)
				return true
			}
			// Calls that leave the deterministic scope for a callee that
			// transitively touches concurrency are the indirect form of
			// the same leak. In-scope callees are policed at their own
			// declaration sites.
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := guestapi.Callee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil || detscope.Deterministic(callee.Pkg().Path()) {
				return true
			}
			if sums.Effects(callee)&callsummary.Concurrency == 0 {
				return true
			}
			if note, found := notes.At(call.Pos(), Key); found {
				if note.Reason == "" {
					pass.Reportf(call.Pos(), "simlint:%s annotation needs a justification after the key", Key)
				}
				return true
			}
			pass.Reportf(call.Pos(), "call to %s reaches goroutine or channel operations from a deterministic package; schedule through the kernel's event loop, or annotate //simlint:%s <why>", callsummary.FuncName(callee), Key)
			return true
		})
	}
	return nil, nil
}
