package guestapi

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// mapImporter resolves fixture imports from previously typechecked
// packages, so the test needs no GOPATH tree and no export data.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown import %q", path)
}

// check typechecks one in-memory file as package path and returns the
// package plus the use/selection info the resolver consumes.
func check(t *testing.T, fset *token.FileSet, path, src string, deps mapImporter) (*types.Package, *types.Info, *ast.File) {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: deps}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, info, f
}

const guestSrc = `package guest

type Frame struct{ Dst uint16 }

type Context interface {
	Sleep(cycles int64)
	NetSend(f Frame) error
}

func MustSend(ctx Context, f Frame) { ctx.NetSend(f) }
`

// concreteGuestSrc declares a *concrete* Context with a pointer
// receiver in a differently rooted guest package: matching is by path
// tail and receiver type name, not by the module's own import path or
// interface-ness.
const concreteGuestSrc = `package guest

type Context struct{}

func (c *Context) Sleep(cycles int64) {}
`

// sideSrc is the negative space: same API names, wrong package tail.
const sideSrc = `package sideguest

type Context interface{ Sleep(cycles int64) }

func MustSend() {}
`

const kernelSrc = `package kernel

func Boot() {}
`

const mainSrc = `package consumer

import (
	"fix/internal/guest"
	g2 "fix/v2/guest"
	"fix/internal/kernel"
	side "fix/internal/sideguest"
)

func run(ctx guest.Context, c2 *g2.Context, sc side.Context) {
	ctx.Sleep(1)                       // call 0: interface Context method
	ctx.NetSend(guest.Frame{})         // call 1: another Context method
	guest.MustSend(ctx, guest.Frame{}) // call 2: package-level guest func
	c2.Sleep(2)                        // call 3: concrete pointer-receiver Context method
	sc.Sleep(3)                        // call 4: Context from a non-guest package
	side.MustSend()                    // call 5: package func from a non-guest package
	kernel.Boot()                      // call 6: kernel package func
	f := func() {}
	f()            // call 7: dynamic — no callee
	_ = int64(4)   // conversion — not a call expr callee
	println(5)     // call 8: builtin — no callee
}
`

// load typechecks the whole fixture forest and returns the consumer's
// info plus its calls in source order.
func load(t *testing.T) (*types.Info, []*ast.CallExpr) {
	t.Helper()
	fset := token.NewFileSet()
	deps := mapImporter{}
	for _, p := range []struct{ path, src string }{
		{"fix/internal/guest", guestSrc},
		{"fix/v2/guest", concreteGuestSrc},
		{"fix/internal/sideguest", sideSrc},
		{"fix/internal/kernel", kernelSrc},
	} {
		pkg, _, _ := check(t, fset, p.path, p.src, deps)
		deps[p.path] = pkg
	}
	_, info, f := check(t, fset, "fix/consumer", mainSrc, deps)
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			// int64(4) parses as a CallExpr too; Callee must reject it,
			// so keep it out of the positional list but assert below.
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "int64" {
				if got := Callee(info, call); got != nil {
					t.Errorf("Callee(int64 conversion) = %v, want nil", got)
				}
				return true
			}
			calls = append(calls, call)
		}
		return true
	})
	if len(calls) != 9 {
		t.Fatalf("fixture declares %d calls, want 9", len(calls))
	}
	return info, calls
}

func TestCalleeResolution(t *testing.T) {
	info, calls := load(t)
	wantNames := []string{"Sleep", "NetSend", "MustSend", "Sleep", "Sleep", "MustSend", "Boot", "", ""}
	for i, want := range wantNames {
		fn := Callee(info, calls[i])
		switch {
		case want == "" && fn != nil:
			t.Errorf("call %d: Callee = %s, want nil (dynamic/builtin)", i, fn.Name())
		case want != "" && fn == nil:
			t.Errorf("call %d: Callee = nil, want %s", i, want)
		case want != "" && fn.Name() != want:
			t.Errorf("call %d: Callee = %s, want %s", i, fn.Name(), want)
		}
	}
}

func TestIsContextMethod(t *testing.T) {
	info, calls := load(t)
	cases := []struct {
		call int
		name string
		want bool
	}{
		{0, "Sleep", true},    // interface method on guest.Context
		{0, "NetSend", false}, // right receiver, wrong method name
		{1, "NetSend", true},
		{2, "MustSend", false}, // guest func, but not a method
		{3, "Sleep", true},     // concrete *Context in a /guest package
		{4, "Sleep", false},    // Context from package sideguest
		{6, "Boot", false},
	}
	for _, c := range cases {
		fn := Callee(info, calls[c.call])
		if got := IsContextMethod(fn, c.name); got != c.want {
			t.Errorf("IsContextMethod(call %d, %q) = %v, want %v", c.call, c.name, got, c.want)
		}
	}
	if IsContextMethod(nil, "Sleep") {
		t.Error("IsContextMethod(nil) = true")
	}
}

func TestIsGuestFunc(t *testing.T) {
	info, calls := load(t)
	cases := []struct {
		call int
		name string
		want bool
	}{
		{2, "MustSend", true},
		{2, "Sleep", false},    // wrong name
		{0, "Sleep", false},    // method, not a package func
		{5, "MustSend", false}, // package tail is sideguest, not guest
		{6, "Boot", false},
	}
	for _, c := range cases {
		fn := Callee(info, calls[c.call])
		if got := IsGuestFunc(fn, c.name); got != c.want {
			t.Errorf("IsGuestFunc(call %d, %q) = %v, want %v", c.call, c.name, got, c.want)
		}
	}
	if IsGuestFunc(nil, "MustSend") {
		t.Error("IsGuestFunc(nil) = true")
	}
}
