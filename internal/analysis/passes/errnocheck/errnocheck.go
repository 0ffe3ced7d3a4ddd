// Package errnocheck defines the simlint analyzer that flags guest
// syscall and network calls whose error result is discarded. Since
// the chaos subsystem landed, guest.Context.Syscall, NetSend,
// NetForward, NetRecv and the retry wrappers all report injected
// errnos; a call site that drops the error turns an injected fault
// into silence — the kernel billed the failed request, the guest
// behaved as if it succeeded, and the discrepancy surfaces (if ever)
// as an unexplained golden diff. Deliberate discards — flood senders
// whose drops are the experiment, modeled programs that genuinely
// don't check — carry a justified annotation:
//
//	//simlint:errno-ok flood source: delivery failure is the scenario
//	ctx.NetSend(f)
package errnocheck

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/annotation"
	"repro/internal/analysis/passes/guestapi"
)

// Key is the annotation that suppresses a finding, e.g.
// `//simlint:errno-ok <why>`.
const Key = "errno-ok"

// contextMethods are the error-returning guest.Context methods.
var contextMethods = map[string]bool{
	"Syscall":    true,
	"NetSend":    true,
	"NetForward": true,
	"NetRecv":    true,
}

// wrapperFuncs are the error-returning package-level retry wrappers.
var wrapperFuncs = map[string]bool{
	"SendRetry": true,
	"RecvRetry": true,
}

// Analyzer flags discarded errors from the guest syscall/net surface.
var Analyzer = &analysis.Analyzer{
	Name: "errnocheck",
	Doc: "flag discarded errors from guest.Context syscalls and net calls\n\n" +
		"An ignored errno from Syscall/NetSend/NetForward/NetRecv or a retry\n" +
		"wrapper silently swallows an injected fault. Handle the error or\n" +
		"annotate the discard with //simlint:errno-ok <why>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	notes := annotation.New(pass.Fset, pass.Files)

	report := func(n ast.Node, call *ast.CallExpr, how string) {
		fn := guestapi.Callee(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		target := ""
		switch {
		case contextMethods[fn.Name()] && guestapi.IsContextMethod(fn, fn.Name()):
			target = "guest.Context." + fn.Name()
		case wrapperFuncs[fn.Name()] && guestapi.IsGuestFunc(fn, fn.Name()):
			target = "guest." + fn.Name()
		default:
			return
		}
		if note, ok := notes.At(n.Pos(), Key); ok {
			if note.Reason == "" {
				pass.Reportf(n.Pos(), "simlint:%s annotation needs a justification after the key", Key)
			}
			return
		}
		pass.Reportf(n.Pos(), "%s error from %s: an injected fault would vanish here; handle the error or annotate //simlint:%s <why>", how, target, Key)
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					report(stmt, call, "discarded")
				}
			case *ast.GoStmt:
				report(stmt, stmt.Call, "unobservable")
			case *ast.DeferStmt:
				report(stmt, stmt.Call, "unobservable")
			case *ast.AssignStmt:
				// `a, _ := call()` — the error is always the final
				// result, so a blank in the last position discards it.
				if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
					if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok && isBlank(stmt.Lhs[len(stmt.Lhs)-1]) {
						report(stmt, call, "discarded")
					}
					return true
				}
				for i, rhs := range stmt.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok && i < len(stmt.Lhs) && isBlank(stmt.Lhs[i]) {
						report(stmt, call, "discarded")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
