package cluster

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/sim"
)

// The forwarding daemon is the cluster's hottest guest — every frame
// crossing a router activates it — so it is written as a Step guest:
// forwarderStep below is an explicit resumable state machine
// (guest.Step) holding its loop position in a few words of struct
// state instead of a coroutine stack, which also makes a router
// checkpointable.

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

// forwarderStep is the resumable forwarding daemon. Its activation
// cycle mirrors the original blocking loop exactly: block for traffic
// (NetRxWait), drain the receive buffer via retried reads, spend
// lookup cycles per frame, and retransmit via retried forwards.
type forwarderStep struct {
	lookup sim.Cycles
	budget sim.Cycles
	self   guest.Addr
	seen   uint64
	frame  guest.Frame
	retry  guest.RetryStep

	// Bound once at start so steady-state activations allocate
	// nothing: the whole daemon is this struct plus the closures.
	recvOp   guest.RetryOp
	recvDone guest.RetryDone
	fwdOp    guest.RetryOp
	fwdDone  guest.RetryDone
	wait     guest.Step
	lookedUp guest.Step
}

// start is the first activation: bind the continuations, learn the
// machine's address, and block for the first delivery.
func (g *forwarderStep) start(ctx guest.Context, _ guest.Resume) guest.Step {
	g.self = ctx.NetAddr()
	g.recvOp = func(ctx guest.Context) {
		//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
		ctx.NetRecv()
	}
	g.recvDone = g.afterRecv
	g.fwdOp = func(ctx guest.Context) {
		//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
		ctx.NetForward(g.frame)
	}
	g.fwdDone = g.afterForward
	g.wait = g.afterWait
	g.lookedUp = g.afterLookup
	ctx.NetRxWait(g.seen)
	return g.wait
}

// afterWait resumes with the delivery count and begins draining.
func (g *forwarderStep) afterWait(ctx guest.Context, r guest.Resume) guest.Step {
	g.seen = r.Ret
	return g.retry.Begin(ctx, g.recvOp, g.budget, g.recvDone)
}

// afterRecv resumes with a retried read's outcome.
func (g *forwarderStep) afterRecv(ctx guest.Context, r guest.Resume) guest.Step {
	if r.Err != nil || !r.OK {
		// A persistent read fault leaves the frame buffered (err, not
		// ok, distinguishes it from a drained queue); the next
		// delivery wakes the daemon to try again.
		ctx.NetRxWait(g.seen)
		return g.wait
	}
	g.frame = r.Frame
	if g.lookup > 0 {
		ctx.Compute(g.lookup)
		return g.lookedUp
	}
	return g.route(ctx)
}

// afterLookup resumes once the per-frame table work is billed.
func (g *forwarderStep) afterLookup(ctx guest.Context, _ guest.Resume) guest.Step {
	return g.route(ctx)
}

// route consumes or retransmits the held frame.
func (g *forwarderStep) route(ctx guest.Context) guest.Step {
	if g.frame.Dst == g.self {
		// Addressed to the router itself: consumed; drain the next.
		return g.retry.Begin(ctx, g.recvOp, g.budget, g.recvDone)
	}
	return g.retry.Begin(ctx, g.fwdOp, g.budget, g.fwdDone)
}

// afterForward drops any error — a forward still failing after the
// budget is this router's drop; recovery belongs to the end hosts —
// and drains the next frame.
func (g *forwarderStep) afterForward(ctx guest.Context, _ guest.Resume) guest.Step {
	return g.retry.Begin(ctx, g.recvOp, g.budget, g.recvDone)
}

// fork clones the daemon for a checkpoint: the copy's continuations
// and retry are rebound onto the clone, so both daemons resume the
// same activation against their own machines. recvOp captures nothing
// and is shared; fwdOp closes over the held frame and is rebuilt.
func (g *forwarderStep) fork(cur guest.Step) (guest.Forked, error) {
	c := *g
	c.recvDone = c.afterRecv
	c.fwdOp = func(ctx guest.Context) {
		//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
		ctx.NetForward(c.frame)
	}
	c.fwdDone = c.afterForward
	c.wait = c.afterWait
	c.lookedUp = c.afterLookup
	var op guest.RetryOp
	var done guest.RetryDone
	switch {
	case guest.SameOp(g.retry.Op(), g.recvOp):
		op, done = c.recvOp, c.recvDone
	case guest.SameOp(g.retry.Op(), g.fwdOp):
		op, done = c.fwdOp, c.fwdDone
	}
	g.retry.ForkInto(&c.retry, op, done)
	s, ok := guest.RebindStep(cur,
		[]guest.Step{g.start, g.wait, g.lookedUp, g.retry.Self()},
		[]guest.Step{c.start, c.wait, c.lookedUp, c.retry.Self()})
	if !ok {
		return guest.Forked{}, fmt.Errorf("cluster: forwarder holds an unrecognised continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
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
	g := &forwarderStep{lookup: lookup, budget: forwarderBudget(lookup)}
	return g.start, g.fork
}
