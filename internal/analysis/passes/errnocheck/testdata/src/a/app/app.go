// Package app exercises every discard shape errnocheck flags, plus
// the handled, annotated, and lookalike cases it must leave alone.
package app

import "a/internal/guest"

func flagged(ctx guest.Context) {
	ctx.Syscall("read")              // want `discarded error from guest.Context.Syscall`
	ctx.NetSend(guest.Frame{Dst: 1}) // want `discarded error from guest.Context.NetSend`
	f, _, _ := ctx.NetRecv()         // want `discarded error from guest.Context.NetRecv`
	_ = f
	go ctx.Syscall("write")                  // want `unobservable error from guest.Context.Syscall`
	defer ctx.NetForward(guest.Frame{})      // want `unobservable error from guest.Context.NetForward`
	guest.SendRetry(ctx, guest.Frame{}, 100) // want `discarded error from guest.SendRetry`
	_, _, _ = guest.RecvRetry(ctx, 100)      // want `discarded error from guest.RecvRetry`
}

func handled(ctx guest.Context) error {
	if err := ctx.Syscall("read"); err != nil {
		return err
	}
	ok, err := ctx.NetSend(guest.Frame{Dst: 1})
	if !ok || err != nil {
		return err
	}
	return guest.SendRetry(ctx, guest.Frame{}, 8)
}

func annotated(ctx guest.Context) {
	//simlint:errno-ok flood source: delivery failure is the scenario
	ctx.NetSend(guest.Frame{Dst: 2})
}

func unjustified(ctx guest.Context) {
	//simlint:errno-ok
	ctx.Syscall("read") // want `annotation needs a justification`
}

type localCtx struct{}

func (localCtx) Syscall(string) error { return nil }

func lookalike() {
	var c localCtx
	c.Syscall("read") // not the guest surface: no finding
}
