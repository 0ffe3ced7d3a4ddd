package guest

import "repro/internal/sim"

// This file defines the resumable (flyweight) guest form: a guest
// written as an explicit state machine instead of blocking code. A
// resumable guest is a Step function that, given its Context and the
// kernel's reply to its previous request, runs until it posts its
// next request and returns the continuation that will receive that
// request's reply. No goroutine, no parked stack: the guest's entire
// execution state is the continuation value plus whatever state the
// continuation closes over, which is what makes tasks cheap enough
// for 10k+ resident machines and serialisable for checkpoint/fork
// (see ForkFunc).
//
// The kernel runs both guest forms — a Step and a blocking Routine —
// on one activation loop, so a Step and a Routine that issue the same
// request sequence produce byte-identical machine histories.
//
// The contract for a Step activation:
//
//   - At most one request-posting Context call per activation, and it
//     must be the activation's last action. A posting method only
//     *posts*: it returns zero values, and the real reply arrives in
//     the next activation's Resume. Code after the post would run
//     before the request is serviced, so the kernel forbids a second
//     post in one activation.
//   - Pure reads (PID, Nice, Getenv, Setenv, Rand, NetAddr) never
//     post and may be used anywhere in an activation — but a Rand
//     draw after a post would reorder against the machine's own
//     draws on a blocking request, so keep those before the post too.
//   - Returning nil exits the task with code 0; Exit(code) works as
//     in a Routine. A guest must not exit with a request already
//     posted in the same activation.
//   - Call/Call1/Exec are unavailable: library functions and program
//     images run arbitrary Routine code mid-call, which has no
//     resumable form. Guests that need them are written as Routines.
//   - Return a continuation bound once: keep each method value in a
//     field of the guest's state struct, set at start and again on a
//     fork clone. `return g.afterX` makes a new method value, and so
//     allocates, on every activation.

// Resume carries the kernel's reply to the request posted by the
// previous activation. Which fields are meaningful depends on what
// was posted; the continuation knows, because it posted it.
type Resume struct {
	// OK is the request's boolean reply: carried for NetSend and
	// NetForward, frame presence for NetRecv, child presence for Wait
	// and FindProcess.
	OK bool
	// Ret is the request's integer reply: ClockNow's cycle count,
	// NetRx/NetRxWait's delivery total, Fork/SpawnThread/FindProcess's
	// pid.
	Ret uint64
	// Err is the request's error reply (Syscall, Ptrace, and the
	// injected-fault surface of NetSend/NetForward/NetRecv).
	Err error
	// Frame is NetRecv's received frame.
	Frame Frame
	// Wres is Wait's reaped child.
	Wres WaitResult
	// User and Sys are Usage's reply.
	User, Sys sim.Cycles
}

// Step is one activation of a resumable guest: run until the next
// kernel request is posted and return the continuation that receives
// its reply, or return nil to exit with code 0.
type Step func(ctx Context, r Resume) Step

// RetryOp posts one attempt of a retried request. It must make
// exactly one posting Context call (the activation's last action).
type RetryOp func(Context)

// RetryDone receives the final attempt's Resume — success, a
// non-transient error, or the last transient error once the budget's
// deadline passed — and continues the guest.
type RetryDone func(Context, Resume) Step

// RetryStep is the resumable form of retryBackoff: it re-issues a
// transiently failing request with doubling virtual-time backoff
// until it succeeds or a deadline `budget` cycles out passes. Embed
// one in a guest's state struct and reuse it; Begin resets it. The
// zero-fault fast path posts exactly one request and reads no clock,
// matching the blocking wrappers cycle for cycle.
type RetryStep struct {
	op     RetryOp
	budget sim.Cycles
	done   RetryDone

	// self is the bound continuation, created once so steady-state
	// retries allocate nothing.
	self Step

	pc       int
	deadline sim.Cycles
	step     sim.Cycles
	last     Resume
}

// RetryStep program counter: which reply the next activation carries.
const (
	rsFirst = iota // the initial attempt's reply
	rsArm          // ClockNow reply; arm the deadline
	rsSleep        // backoff sleep finished; re-attempt
	rsRetry        // a retry attempt's reply
	rsClock        // ClockNow reply; deadline check
)

// Begin posts the first attempt and returns the continuation that
// runs the retry loop. Call it in tail position of an activation. op
// and done should be bound once by the caller (not fresh closures per
// Begin) to keep the hot path allocation-free.
func (s *RetryStep) Begin(ctx Context, op RetryOp, budget sim.Cycles, done RetryDone) Step {
	if s.self == nil {
		s.self = s.run
	}
	s.op, s.budget, s.done = op, budget, done
	s.pc = rsFirst
	op(ctx)
	return s.self
}

func (s *RetryStep) run(ctx Context, r Resume) Step {
	switch s.pc {
	case rsFirst:
		if s.budget == 0 || !transient(r.Err) {
			return s.done(ctx, r)
		}
		s.last = r
		s.pc = rsArm
		ctx.ClockNow()
		return s.self
	case rsArm:
		s.deadline = sim.Cycles(r.Ret) + s.budget
		s.step = s.budget / 16
		if s.step == 0 {
			s.step = 1
		}
		s.pc = rsSleep
		ctx.Sleep(s.step)
		return s.self
	case rsSleep:
		s.pc = rsRetry
		s.op(ctx)
		return s.self
	case rsRetry:
		if !transient(r.Err) {
			return s.done(ctx, r)
		}
		s.last = r
		s.pc = rsClock
		ctx.ClockNow()
		return s.self
	case rsClock:
		if sim.Cycles(r.Ret) >= s.deadline {
			return s.done(ctx, s.last)
		}
		if s.step < s.budget/2 {
			s.step *= 2
		}
		s.pc = rsSleep
		ctx.Sleep(s.step)
		return s.self
	}
	panic("guest: RetryStep continuation in invalid state")
}
