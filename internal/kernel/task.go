package kernel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/guest"
	"repro/internal/lib"
	"repro/internal/proc"
	"repro/internal/sim"
)

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
	rqNetForward
	rqNetRecv
	rqNetRx
	rqNetRxWait
)

// request is one guest action awaiting kernel service. Every request
// lives in its task's stepCtx: the guest fills the input fields and
// posts it, and the engine fills the reply fields before granting it.
type request struct {
	kind reqKind

	// Inputs.
	cycles sim.Cycles     // rqCompute, rqSleep
	addr   uint64         // rqAccess; seen for rqNetRxWait
	frame  device.Frame   // rqNetSend, rqNetForward input; rqNetRecv reply
	write  bool           // rqAccess
	name   string         // rqSyscall, rqFork, rqThread
	body   guest.Routine  // rqFork, rqThread
	prog   *guest.Program // rqExec
	nice   int            // rqNice
	ptReq  guest.PtraceRequest
	ptPid  proc.PID
	ptAddr uint64
	ptData uint64
	code   int // rqExit

	// Replies.
	ret  uint64
	err  error
	wres guest.WaitResult
	wok  bool
	u, s sim.Cycles
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
	// stepCtx is every task's Context for posting requests; a Body
	// guest posts through it from guestCtx.
	stepFn  guest.Step
	stepCtx stepCtx

	// forkFn clones the flyweight guest's continuation and state for a
	// machine checkpoint (see guest.ForkFunc); nil guests are not
	// snapshottable. guestState is the restored guest's state struct
	// (Forked.State), exposed via Machine.GuestState so a harvest layer
	// can read results out of a forked machine's guests.
	forkFn     guest.ForkFunc
	guestState any

	// started marks that the guest's first activation has run.
	started bool

	// cur is the request being serviced (always &stepCtx.r). begun
	// marks that the kernel has started servicing it; granted marks
	// completion, read by the activation loop. pendingUser is
	// user-mode computation still to burn before cur completes (only
	// rqCompute uses it; kernel services are non-preemptible lumps).
	// completed marks a blocked request (disk wait, wait(), trace
	// stop) whose condition has been satisfied; the grant is delivered
	// when the task is next dispatched. resume, when set, is a
	// continuation run at next dispatch (finishing a
	// watchpoint-interrupted memory access).
	cur         *request
	begun       bool
	granted     bool
	pendingUser sim.Cycles
	completed   bool
	resume      func()

	// image is the executable identity this task runs (inherited on
	// fork, replaced by exec). linkMap is set by exec.
	image   *guest.Program
	linkMap *lib.LinkMap

	// quantumLeft is the remaining timeslice granted at dispatch.
	quantumLeft sim.Cycles

	// waitingChild marks a task blocked in Wait.
	waitingChild bool

	// watchFired marks that the in-flight memory access already took
	// its watchpoint trap, so the post-resume retry skips the check.
	watchFired bool

	// stopPending defers a SIGSTOP delivered while the task was
	// blocked: the stop takes effect when the blocking condition
	// completes, without corrupting the in-flight request.
	stopPending bool

	// blockedAt records when the task last blocked, for disk-wait
	// statistics.
	blockedAt sim.Cycles

	// tracees are the tasks this one has ptrace-attached to.
	tracees []*task

	// stopReported marks a ptrace stop already delivered to the
	// tracer via Wait.
	stopReported bool

	// wakePending marks a scheduled delayed wake so duplicate wake
	// events are not enqueued. wakeFire is the reusable callback for
	// those events, built once in newTask so the wake path does not
	// allocate a closure per wakeup. sleepFire and swapInFire are the
	// same idea for sleep expiry and blocking swap-in completion: a
	// task has at most one of each in flight, so the steady-state
	// sleep/fault loops of the runtime attacks allocate nothing.
	wakePending bool
	wakeFire    func()
	sleepFire   func()
	swapInFire  func()

	// billable marks thread groups whose final usage must outlive
	// reaping: directly spawned processes and anything that exec'd a
	// program. Anonymous fork children (the scheduling attack's
	// storm) are not billable; their time folds into the parent.
	billable bool
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
	ctx    guestCtx
	resume func() (struct{}, bool)
	stop   func()
	// ended marks that the bound guest's code returned (or called
	// Exit with code) and the coroutine is parked for reuse.
	ended bool
	code  int
}

// run is the coroutine's body: run the bound task's guest code, report
// its end, and park until the machine binds the next Body task.
func (co *coro) run(yield func(struct{}) bool) {
	co.ctx.yield = yield
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
	co.ctx.t.body(&co.ctx)
	return 0, false
}

// guestCtx implements guest.Context for a Body guest, on its
// coroutine. Each request is posted through the task's stepCtx exactly
// as a flyweight activation posts it. When the post is granted inline
// the guest simply continues; otherwise the coroutine yields to the
// activation loop, which resumes it once the request is granted.
type guestCtx struct {
	t     *task
	yield func(struct{}) bool
	// argbuf backs Call1's argument slice (see guest.LibFunc's
	// aliasing contract).
	argbuf [1]uint64
}

var _ guest.Context = (*guestCtx)(nil)

func (c *guestCtx) PID() proc.PID { return c.t.p.PID }

// do posts r and returns it once granted, with its reply fields
// filled. Assigning the whole struct clears stale replies from the
// task's previous request.
func (c *guestCtx) do(r request) *request {
	t := c.t
	s := &t.stepCtx
	s.r = r
	s.post()
	if !t.granted && !c.yield(struct{}{}) {
		panic(killPanic{})
	}
	t.granted = false
	s.posted = false
	return &s.r
}

func (c *guestCtx) Compute(d sim.Cycles) {
	if d == 0 {
		return
	}
	c.do(request{kind: rqCompute, cycles: d})
}

func (c *guestCtx) Load(addr uint64) {
	c.do(request{kind: rqAccess, addr: addr})
}

func (c *guestCtx) Store(addr uint64) {
	c.do(request{kind: rqAccess, addr: addr, write: true})
}

func (c *guestCtx) Call(fn string, args ...uint64) uint64 {
	return c.callSym(fn, args)
}

func (c *guestCtx) Call1(fn string, a0 uint64) uint64 {
	// The scratch buffer lives in the (heap-resident) context, so
	// slicing it does not allocate; LibFunc implementations are
	// forbidden from retaining args.
	c.argbuf[0] = a0
	return c.callSym(fn, c.argbuf[:1])
}

// callSym resolves fn through the link map and runs it in this
// context, charging the PLT indirection.
func (c *guestCtx) callSym(fn string, args []uint64) uint64 {
	lm := c.t.linkMap
	if lm == nil {
		panic(fmt.Sprintf("kernel: task %v calls %q with no link map (not exec'd)", c.t.p, fn))
	}
	f, _, ok := lm.Resolve(fn)
	if !ok {
		panic(fmt.Sprintf("kernel: undefined symbol %q in %v", fn, c.t.p))
	}
	// PLT indirection cost, then the callee runs in this context.
	c.Compute(pltCost)
	return f(c, args)
}

func (c *guestCtx) Syscall(name string) error {
	r := c.do(request{kind: rqSyscall, name: name})
	return r.err
}

func (c *guestCtx) Fork(name string, body guest.Routine) proc.PID {
	r := c.do(request{kind: rqFork, name: name, body: body})
	return proc.PID(r.ret)
}

func (c *guestCtx) SpawnThread(name string, body guest.Routine) proc.PID {
	r := c.do(request{kind: rqThread, name: name, body: body})
	return proc.PID(r.ret)
}

func (c *guestCtx) Wait() (guest.WaitResult, bool) {
	r := c.do(request{kind: rqWait})
	return r.wres, r.wok
}

func (c *guestCtx) Exit(code int) {
	panic(exitPanic{code: code})
}

func (c *guestCtx) Yield() {
	c.do(request{kind: rqYield})
}

func (c *guestCtx) Sleep(d sim.Cycles) {
	c.do(request{kind: rqSleep, cycles: d})
}

func (c *guestCtx) SetNice(n int) {
	c.do(request{kind: rqNice, nice: n})
}

func (c *guestCtx) Nice() int {
	// Safe direct read: the engine waits while guest code runs, and
	// only this task writes its own nice value.
	return c.t.p.Nice()
}

func (c *guestCtx) Getenv(key string) string {
	// Env is written only by this task or before it first runs
	// (inheritance at fork), and the engine waits while guest code
	// runs, so this access is race-free.
	return c.t.p.Env[key]
}

func (c *guestCtx) Setenv(key, value string) {
	c.t.p.Env[key] = value
}

func (c *guestCtx) FindProcess(name string) (proc.PID, bool) {
	r := c.do(request{kind: rqFind, name: name})
	return proc.PID(r.ret), r.wok
}

func (c *guestCtx) Rand() *sim.Rand {
	// Safe for the same reason as Getenv: a coroutine switch hands
	// control over, so only this guest runs now.
	return c.t.m.rng
}

func (c *guestCtx) Ptrace(req guest.PtraceRequest, pid proc.PID, addr, data uint64) error {
	r := c.do(request{kind: rqPtrace, ptReq: req, ptPid: pid, ptAddr: addr, ptData: data})
	return r.err
}

func (c *guestCtx) Usage() (user, system sim.Cycles) {
	r := c.do(request{kind: rqUsage})
	return r.u, r.s
}

func (c *guestCtx) ClockNow() sim.Cycles {
	r := c.do(request{kind: rqClock})
	return sim.Cycles(r.ret)
}

func (c *guestCtx) NetSend(f guest.Frame) (bool, error) {
	r := c.do(request{kind: rqNetSend, frame: f})
	return r.wok, r.err
}

func (c *guestCtx) NetForward(f guest.Frame) (bool, error) {
	r := c.do(request{kind: rqNetForward, frame: f})
	return r.wok, r.err
}

func (c *guestCtx) NetRecv() (guest.Frame, bool, error) {
	r := c.do(request{kind: rqNetRecv})
	return r.frame, r.wok, r.err
}

func (c *guestCtx) NetAddr() guest.Addr {
	// Safe direct read like Nice/Getenv: the engine waits while guest
	// code runs, and the address is fixed at cluster wiring.
	return c.t.m.nic.Addr()
}

func (c *guestCtx) NetRx() uint64 {
	r := c.do(request{kind: rqNetRx})
	return r.ret
}

func (c *guestCtx) NetRxWait(seen uint64) uint64 {
	r := c.do(request{kind: rqNetRxWait, addr: seen})
	return r.ret
}

// Exec loads a program image: the kernel charges execve and dynamic
// linking, builds the link map, and records integrity measurements;
// then constructors, main, and destructors run here in guest context,
// exactly the sandwich of Fig. 2 in the paper.
func (c *guestCtx) Exec(prog *guest.Program) {
	r := c.do(request{kind: rqExec, prog: prog})
	if r.err != nil {
		panic(fmt.Sprintf("kernel: exec %q: %v", prog.Name, r.err))
	}
	libs := c.t.linkMap.Libraries()
	for _, l := range libs {
		if l.Constructor != nil {
			c.Compute(ctorDispatchCost)
			l.Constructor(c)
		}
	}
	if prog.Main != nil {
		prog.Main(c)
	}
	for i := len(libs) - 1; i >= 0; i-- {
		if d := libs[i].Destructor; d != nil {
			c.Compute(ctorDispatchCost)
			d(c)
		}
	}
}

// pltCost is the user-mode cost of one PLT-resolved library call.
const pltCost sim.Cycles = 12

// ctorDispatchCost is the loader's per-routine dispatch overhead
// around constructors/destructors.
const ctorDispatchCost sim.Cycles = 200
