// Package app exercises syscall-name checking at the guest call
// surface.
package app

import "a/internal/guest"

const typoName = "sendot"

func probe(ctx guest.Context, dynamic string) error {
	if err := ctx.Syscall("read"); err != nil {
		return err
	}
	if err := ctx.Syscall("sendot"); err != nil { // want `unknown syscall name "sendot" in guest.Context.Syscall`
		return err
	}
	if err := ctx.Syscall(typoName); err != nil { // want `unknown syscall name "sendot" in guest.Context.Syscall`
		return err
	}
	if err := ctx.Syscall(dynamic); err != nil { // dynamic: left to runtime validation
		return err
	}
	//simlint:syscall-ok probing the kernel's unknown-name panic
	return ctx.Syscall("frobnicate")
}
