package guest

import "repro/internal/sim"

// This file defines the resumable (flyweight) guest form: a guest
// written as a plain value instead of blocking code. The value holds
// the guest's whole execution state, with a program-counter field
// that records which request it posted last, and one method,
// Activate, runs it from one reply to its next request. Resumable
// binds a value's continuation once; the kernel calls that Step once
// per granted request. No goroutine, no parked stack: that is what
// makes tasks cheap enough for 10k+ resident machines, and a fork is
// a copy of the value.
//
// The kernel runs both guest forms — a Step and a blocking Routine —
// on one activation loop, so a Step and a Routine that issue the same
// request sequence produce byte-identical machine histories.
//
// The contract for an activation:
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
//   - Returning false (a nil Step) exits the task with code 0;
//     Exit(code) works as in a Routine. A guest must not exit with a
//     request already posted in the same activation.
//   - Call/Call1/Exec are unavailable: library functions and program
//     images run arbitrary Routine code mid-call, which has no
//     resumable form. Guests that need them are written as Routines.

// Resume carries the kernel's reply to the request posted by the
// previous activation. Which fields are meaningful depends on what
// was posted; the guest knows, because it posted it.
type Resume struct {
	// OK is the request's boolean reply: carried for NetSend and
	// NetForward, frame presence for NetRecv, child presence for Wait
	// and FindProcess.
	OK bool
	// Ret is the request's integer reply: ClockNow's cycle count,
	// NetRxWait's delivery total, Fork/SpawnThread/FindProcess's pid.
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
// its reply, or return nil to exit with code 0. Resumable makes one.
type Step func(ctx Context, r Resume) Step

// ForkFunc clones a resumable guest between activations, when no
// request is being posted: it returns an independent copy's
// continuation and the copy's own ForkFunc, so a clone can be forked
// again.
type ForkFunc func() (Step, ForkFunc)

// Resumable binds the continuation of g, a guest written as a plain
// value whose Activate runs one activation and returns false to exit.
// The Step and ForkFunc are bound once, so an activation allocates
// nothing of its own. The ForkFunc copies the value as it stands and
// binds the copy's continuation; a value that holds host pointers
// (stats to fill, a link to drive) shares them with its copies, so
// spawn such a guest without its ForkFunc.
func Resumable[T any, P activator[T]](g T) (Step, ForkFunc) {
	v := &resumable[T, P]{g: g}
	v.self = v.step
	return v.self, v.fork
}

// activator is a pointer to a resumable guest value.
type activator[T any] interface {
	*T
	Activate(ctx Context, r Resume) bool
}

// resumable holds a guest value and its bound continuation.
type resumable[T any, P activator[T]] struct {
	g    T
	self Step
}

func (v *resumable[T, P]) step(ctx Context, r Resume) Step {
	if P(&v.g).Activate(ctx, r) {
		return v.self
	}
	return nil
}

func (v *resumable[T, P]) fork() (Step, ForkFunc) { return Resumable[T, P](v.g) }

// Retry is what RetryStep.Next tells the guest to do.
type Retry uint8

const (
	// RetryFinal ends the retry: Next left the final reply in *r —
	// success, a non-transient error, or the last transient error
	// once the deadline passed — and the guest goes on with it.
	RetryFinal Retry = iota
	// RetryPosted means Next posted a clock read or a backoff sleep
	// itself; the activation ends.
	RetryPosted
	// RetryAgain means the backoff is over: the guest posts its
	// attempt again, and the activation ends.
	RetryAgain
)

// RetryStep is the resumable form of retryBackoff, as plain data in a
// guest's value: it re-issues a transiently failing request with
// doubling virtual-time backoff until it succeeds or a deadline
// budget cycles out passes. The guest posts an attempt and calls Arm,
// then hands each later reply to Next until Next returns RetryFinal.
// Copying the guest copies the retry where it stands. The zero-fault
// fast path posts exactly one request and reads no clock, matching
// the blocking wrappers cycle for cycle.
type RetryStep struct {
	budget   sim.Cycles
	deadline sim.Cycles
	step     sim.Cycles
	last     Resume
	pc       uint8
}

// RetryStep program counter: which reply the next Next carries.
const (
	rsFirst = iota // the initial attempt's reply
	rsArm          // ClockNow reply; arm the deadline
	rsSleep        // backoff sleep finished; re-attempt
	rsRetry        // a retry attempt's reply
	rsClock        // ClockNow reply; deadline check
)

// Arm starts a retry of the attempt the guest posts in this
// activation, bounded by budget cycles; budget 0 never retries.
func (s *RetryStep) Arm(budget sim.Cycles) {
	s.budget, s.pc = budget, rsFirst
}

// Next advances the retry with the reply to its last post and says
// what the guest must do. On RetryFinal, *r holds the final reply.
func (s *RetryStep) Next(ctx Context, r *Resume) Retry {
	switch s.pc {
	case rsFirst, rsRetry:
		if s.budget == 0 || !transient(r.Err) {
			return RetryFinal
		}
		s.last = *r
		if s.pc == rsFirst {
			s.pc = rsArm
		} else {
			s.pc = rsClock
		}
		ctx.ClockNow()
		return RetryPosted
	case rsArm:
		s.deadline = sim.Cycles(r.Ret) + s.budget
		s.step = s.budget / 16
		if s.step == 0 {
			s.step = 1
		}
	case rsSleep:
		s.pc = rsRetry
		return RetryAgain
	case rsClock:
		if sim.Cycles(r.Ret) >= s.deadline {
			*r = s.last
			return RetryFinal
		}
		if s.step < s.budget/2 {
			s.step *= 2
		}
	default:
		panic("guest: RetryStep in invalid state")
	}
	s.pc = rsSleep
	ctx.Sleep(s.step)
	return RetryPosted
}
