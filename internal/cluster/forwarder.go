package cluster

import (
	"repro/internal/guest"
	"repro/internal/sim"
)

// The forwarding daemon is the cluster's hottest guest — every frame
// crossing a router activates it — so it is written as a resumable
// guest: forwarder below is a plain value holding its loop position in
// a few words instead of a coroutine stack, which also makes a router
// checkpointable, by copying the value.

// DefaultForwardUs is a software router's per-frame lookup/queue
// service when a forwarder leaves it unset: ~3 µs of FIB lookup,
// header rewrite, and queue handling.
const DefaultForwardUs = 3

// forwarderBudget is the retry budget against injected read/sendto
// faults: generous enough to outlast a transient, bounded so a
// hard-faulted router drops the frame and moves on instead of wedging
// the fabric. With no faults configured the retry paths never touch
// the clock, so healthy histories replay bit-for-bit.
func forwarderBudget(lookup sim.Cycles) sim.Cycles {
	budget := 64 * lookup
	if budget < 1<<16 {
		budget = 1 << 16
	}
	return budget
}

// forwarder is the resumable forwarding daemon. Its activation cycle
// mirrors the original blocking loop exactly: block for traffic
// (NetRxWait), drain the receive buffer via retried reads, spend
// lookup cycles per frame, and retransmit via retried forwards.
type forwarder struct {
	lookup sim.Cycles
	budget sim.Cycles
	self   guest.Addr
	seen   uint64
	frame  guest.Frame
	retry  guest.RetryStep
	pc     uint8
}

// forwarder program counter: which reply the next activation carries.
const (
	fwStart   = iota // none: the first activation
	fwWait           // NetRxWait's delivery count
	fwRecv           // a retried read's
	fwLookup         // the lookup compute's
	fwForward        // a retried forward's
)

// Activate runs the daemon from one reply to its next request. It
// never exits; the cluster retires it when the fabric quiesces.
func (g *forwarder) Activate(ctx guest.Context, r guest.Resume) bool {
	switch g.pc {
	case fwStart:
		g.self = ctx.NetAddr()
		g.wait(ctx)
	case fwWait:
		g.seen = r.Ret
		g.recv(ctx)
	case fwRecv:
		switch g.retry.Next(ctx, &r) {
		case guest.RetryAgain:
			//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
			ctx.NetRecv()
		case guest.RetryFinal:
			if r.Err != nil || !r.OK {
				// A persistent read fault leaves the frame buffered
				// (err, not ok, distinguishes it from a drained
				// queue); the next delivery wakes the daemon to try
				// again.
				g.wait(ctx)
				break
			}
			g.frame = r.Frame
			if g.lookup > 0 {
				g.pc = fwLookup
				ctx.Compute(g.lookup)
				break
			}
			g.route(ctx)
		}
	case fwLookup:
		g.route(ctx)
	case fwForward:
		// A forward still failing after the budget is this router's
		// drop, so its error is dropped too: recovery belongs to the
		// end hosts.
		switch g.retry.Next(ctx, &r) {
		case guest.RetryAgain:
			//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
			ctx.NetForward(g.frame)
		case guest.RetryFinal:
			g.recv(ctx)
		}
	}
	return true
}

// wait blocks for the next delivery.
func (g *forwarder) wait(ctx guest.Context) {
	g.pc = fwWait
	ctx.NetRxWait(g.seen)
}

// recv drains the next frame with a retried read.
func (g *forwarder) recv(ctx guest.Context) {
	g.pc = fwRecv
	g.retry.Arm(g.budget)
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetRecv()
}

// route consumes the held frame when it is addressed to the router
// itself, and retransmits it otherwise.
func (g *forwarder) route(ctx guest.Context) {
	if g.frame.Dst == g.self {
		g.recv(ctx)
		return
	}
	g.pc = fwForward
	g.retry.Arm(g.budget)
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetForward(g.frame)
}

// ForwarderGuest returns the forwarding guest a router machine runs,
// as its first activation plus its fork hook: it blocks for traffic,
// then drains the kernel's receive buffer, spending lookup cycles of
// user-mode table work per frame before retransmitting it — Src
// preserved — toward its destination via NetForward. Every step is
// billed on the router machine like any guest's work (the receive
// interrupts, the read and sendto syscalls, the lookup cycles), so the
// router's own bill is a first-class observable: an attacker flooding
// through a shared router inflates the router's metered time without
// ever running an instruction there. Spawn it as
// kernel.SpawnConfig{Step: step, Fork: fork} on a MachineSpec with
// Service set — the daemon never exits; the cluster retires it when
// the fabric quiesces — and the router stays checkpointable.
func ForwarderGuest(lookup sim.Cycles) (guest.Step, guest.ForkFunc) {
	return guest.Resumable(forwarder{lookup: lookup, budget: forwarderBudget(lookup)})
}
