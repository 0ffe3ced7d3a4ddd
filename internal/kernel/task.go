package kernel

import (
	"repro/internal/guest"
	"repro/internal/lib"
	"repro/internal/proc"
	"repro/internal/sim"
)

// This file holds a task's kernel-side state: the request its guest
// posts, the PCB and bookkeeping the engine keeps per task, and coro,
// the coroutine a Body guest's blocking code runs on. The guest posts
// through stepCtx (step.go) whichever way it is written.

// reqKind enumerates guest requests.
type reqKind int

const (
	rqCompute reqKind = iota + 1
	rqAccess
	rqSyscall
	rqFork
	rqThread
	rqWait
	rqExit
	rqYield
	rqSleep
	rqNice
	rqPtrace
	rqUsage
	rqExec
	rqFind
	rqClock
	rqNetSend
	rqNetRecv
	rqNetRxWait
)

// request is one guest action awaiting kernel service. Every request
// lives in its task's stepCtx: the guest fills the input fields and
// posts it, and the engine fills the reply before granting it.
type request struct {
	kind reqKind

	// Inputs.
	cycles sim.Cycles     // rqCompute, rqSleep
	addr   uint64         // rqAccess; seen for rqNetRxWait
	write  bool           // rqAccess
	sys    sysClass       // rqSyscall
	name   string         // rqFork, rqThread, rqFind
	body   guest.Routine  // rqFork, rqThread
	prog   *guest.Program // rqExec
	nice   int            // rqNice
	ptReq  guest.PtraceRequest
	ptPid  proc.PID
	ptAddr uint64
	ptData uint64
	code   int // rqExit

	// The reply, which a Step guest's next activation receives as is.
	// Its Frame is also rqNetSend's input, sent as is.
	guest.Resume
}

// task couples a PCB with its guest and kernel-side execution state.
type task struct {
	p *proc.Proc
	m *Machine

	// st is the thread group's stats record, resolved once at task
	// creation so request service does not look it up per action.
	st *Stats

	// body is a Body guest's blocking code. It runs on co, a coroutine
	// bound at the task's first activation and returned to the
	// machine when the code ends.
	body guest.Routine
	co   *coro

	// stepFn, when non-nil, marks a flyweight task: the guest is a
	// resumable state machine (see step.go). stepFn holds the
	// continuation that receives the next granted request's reply.
	// stepCtx is the task's guest.Context, whichever way the guest is
	// written.
	stepFn  guest.Step
	stepCtx stepCtx

	// forkFn copies the flyweight guest's value for a machine
	// checkpoint (see guest.ForkFunc); a guest without one is not
	// snapshottable.
	forkFn guest.ForkFunc

	// cur is the request being serviced (always &stepCtx.r); granted
	// marks its completion, read by the activation loop.
	cur     *request
	granted bool

	taskState

	// tracees are the tasks this one has ptrace-attached to.
	tracees []*task

	// wakeFire is the reusable callback for delayed wake events, so the
	// wake path does not allocate a closure per wakeup. sleepFire and
	// swapInFire are the same idea for sleep expiry and blocking
	// swap-in completion: a task has at most one of each in flight, so
	// the steady-state sleep/fault loops of the runtime attacks allocate
	// nothing. Each is built at its first use (wakeFn, sleepFn,
	// swapInFn): a fork storm's child never sleeps, never blocks on swap
	// and is never woken, so it builds none.
	wakeFire   func()
	sleepFire  func()
	swapInFire func()
}

// wakeFn returns t's delayed-wake callback.
func (t *task) wakeFn() func() {
	if t.wakeFire == nil {
		t.wakeFire = func() {
			t.wakePending = false
			t.m.wakeNow(t)
		}
	}
	return t.wakeFire
}

// sleepFn returns t's sleep-expiry callback.
func (t *task) sleepFn() func() {
	if t.sleepFire == nil {
		t.sleepFire = func() {
			t.completed = true
			t.m.wakeNow(t)
		}
	}
	return t.sleepFire
}

// swapInFn returns t's swap-in completion callback: the disk interrupt,
// then the wake of t, blocked since blockedAt.
func (t *task) swapInFn() func() {
	if t.swapInFire == nil {
		t.swapInFire = func() {
			m := t.m
			m.diskIRQ()
			t.st.DiskWaitCycles += m.clock.Now() - t.blockedAt
			t.completed = true
			m.wakeNow(t)
		}
	}
	return t.swapInFire
}

// taskState is a task's plain-data state: flags, cycle counts and the
// immutable program it runs. A machine copy assigns it as one value.
type taskState struct {
	// started marks that the guest's first activation has run.
	started bool

	// begun marks that the kernel has started servicing cur.
	// pendingUser is user-mode computation still to burn before cur
	// completes (only rqCompute uses it; kernel services are
	// non-preemptible lumps). completed marks a blocked request (disk
	// wait, wait(), trace stop) whose condition has been satisfied; the
	// grant is delivered when the task is next dispatched.
	begun       bool
	pendingUser sim.Cycles
	completed   bool

	// image is the executable identity this task runs (inherited on
	// fork, replaced by exec), and imageDigest its ProgramDigest,
	// hashed once per spawn or exec. linkMap is set by exec.
	image       *guest.Program
	imageDigest string
	linkMap     *lib.LinkMap

	// quantumLeft is the remaining timeslice granted at dispatch; 0
	// means no cap. The scheduler acts on expiry only in burnCompute,
	// while a compute is still pending, so a quantum that runs out in
	// chargedAdvance, or exactly as a compute ends, is left at 0 and
	// the task's later computes burn uncapped until an event splits
	// one. That is a known fault, kept because fixing it moves the
	// goldens; burnPosted keeps it too.
	quantumLeft sim.Cycles

	// waitingChild marks a task blocked in Wait.
	waitingChild bool

	// watchFired marks that the in-flight memory access already took
	// its watchpoint trap: the task's next dispatch retries the access
	// without the check.
	watchFired bool

	// stopPending defers a SIGSTOP delivered while the task was
	// blocked: the stop takes effect when the blocking condition
	// completes, without corrupting the in-flight request.
	stopPending bool

	// blockedAt records when the task last blocked, for disk-wait
	// statistics.
	blockedAt sim.Cycles

	// stopReported marks a ptrace stop already delivered to the
	// tracer via Wait.
	stopReported bool

	// wakePending marks a scheduled delayed wake so duplicate wake
	// events are not enqueued.
	wakePending bool

	// billable marks thread groups whose final usage must outlive
	// reaping: directly spawned processes and anything that exec'd a
	// program. Anonymous fork children (the scheduling attack's
	// storm) are not billable; their time folds into the parent.
	// recyclable marks a task doFork made, whose shells its reap may
	// put on the machine's free lists (see recycle). doExit clears it
	// for a Body guest killed mid-request.
	billable, recyclable bool

	// unbilledUser and unbilledSys are the user and system cycles the
	// task has run since the accountants last heard of it (see accrue
	// and flushRun). A task with either nonzero is on m.unbilled.
	unbilledUser, unbilledSys sim.Cycles
}

// exitPanic unwinds a guest's code on Exit.
type exitPanic struct{ code int }

// killPanic unwinds a Body guest's code on its coroutine when the
// machine shuts down.
type killPanic struct{}

// coro is a Go coroutine (iter.Pull) that runs Body guests' blocking
// code. The machine binds one to a Body task at its first activation
// and takes it back when the guest's code ends, so a fork storm's
// short-lived children reuse a few coroutines instead of making one
// each. Shutdown stops every coroutine the machine made.
type coro struct {
	// t is the bound task. Its code posts through t.stepCtx, whose
	// post yields here until a request left pending is granted.
	t      *task
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	stop   func()
	// ended marks that the bound guest's code returned (or called
	// Exit with code) and the coroutine is parked for reuse.
	ended bool
	code  int
	// syms are the library symbols the bound task has called, in
	// first-call order (see stepCtx.bind). Binding a task and exec
	// clear them, so a fork child starts with none. They live here
	// rather than in the task so that a task keeps its allocation size
	// class and a fork storm's children reuse the storage with the
	// coroutine.
	syms []boundSym
}

// boundSym is one library symbol a task has bound.
type boundSym struct {
	name string
	f    guest.LibFunc
}

// run is the coroutine's body: run the bound task's guest code, report
// its end, and park until the machine binds the next Body task.
func (co *coro) run(yield func(struct{}) bool) {
	co.yield = yield
	for {
		code, killed := co.runGuest()
		if killed {
			return
		}
		co.ended, co.code = true, code
		if !yield(struct{}{}) {
			return
		}
	}
}

// runGuest runs the bound task's Body to its end, converting an Exit
// into its code and a shutdown into killed.
func (co *coro) runGuest() (code int, killed bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case exitPanic:
			code = r.code
		case killPanic:
			killed = true
		default:
			panic(r)
		}
	}()
	co.t.body(&co.t.stepCtx)
	return 0, false
}
