package kernel

import (
	"fmt"
	"iter"

	"repro/internal/guest"
	"repro/internal/proc"
	"repro/internal/sim"
)

// This file is the kernel's only guest driver: the activation loop,
// and stepCtx, the one guest.Context every task posts through. The
// engine runs one activation per granted request on the goroutine
// driving the machine, and an activation posts its next request
// through beginPosted, which services it inline while the task keeps
// the CPU. Most posts are computes that nothing can split (no event,
// reschedule, barrier or quantum end falls inside) and accesses that
// hit a resident page. Those are served where they are posted, with
// the same charges as the general path and none of its bookkeeping:
// computes through burnPosted, and a Body guest's hits through
// hitPosted. A Body guest's compute or hit has no reply, so it is
// served before its request is written. A guest is written one of two
// ways:
//
//   - SpawnConfig.Step: a resumable state machine (guest.Step) with no
//     goroutine and no parked stack. An activation is one call of its
//     continuation, and a post returns zero values: the reply arrives
//     as the next activation's Resume.
//   - SpawnConfig.Body: blocking Go code (guest.Routine), as libc,
//     libm, program images and attacks are written. An activation
//     resumes the code on the task's coroutine (see coro), which runs
//     on through every request granted inline and yields only when a
//     request is left pending; a post returns the reply.
//
// Both forms post the same request the same way, so a guest's request
// sequence — not how it is written — determines the machine's history.

// stepCtx is a task's guest.Context and holds its single reusable
// request. A posting method writes the request into r, posts it, and
// returns the reply of the request post returns.
type stepCtx struct {
	t *task
	r request
	// posted marks this activation's single allowed post.
	posted bool
	// argbuf backs Call1's argument slice (see guest.LibFunc's
	// aliasing contract).
	argbuf [1]uint64
}

var _ guest.Context = (*stepCtx)(nil)

// noReply is what a Step task's post returns. The kernel never writes
// it, so a Step guest's posting methods return zero values.
var noReply request

// post offers the request already written into c.r to the engine.
// Callers assign c.r with a full struct literal first, which clears
// stale replies and keeps a post to a single struct copy. A Step
// task's compute that nothing can split is burned and granted on the
// spot (burnPosted); any other request goes through beginPosted. A
// Step task returns to whoever drives the engine, so its post returns
// noReply at once. A Body task's post returns c.r once granted:
// inline, or after its coroutine yields to the activation loop until
// the grant.
func (c *stepCtx) post() *request {
	if c.posted {
		panic(fmt.Sprintf("kernel: flyweight task %v posted two requests in one activation (a kernel request must be the activation's last action)", c.t.p))
	}
	c.posted = true
	t := c.t
	// Read co before servicing: if the OOM killer reaps the task
	// mid-request, doExit clears t.co, and the killed guest must still
	// yield here rather than run on and post again.
	co := t.co
	if co == nil && c.r.kind == rqCompute && t.m.burnPosted(t, c.r.cycles) {
		t.granted = true
	} else {
		t.cur = &c.r
		t.m.beginPosted(t)
	}
	if co == nil {
		return &noReply
	}
	if !t.granted && !co.yield(struct{}{}) {
		panic(killPanic{})
	}
	t.granted = false
	c.posted = false
	return &c.r
}

func (c *stepCtx) PID() proc.PID { return c.t.p.PID }

func (c *stepCtx) Compute(d sim.Cycles) {
	if d == 0 {
		return
	}
	if t := c.t; t.co != nil && t.m.burnPosted(t, d) {
		return
	}
	c.r = request{kind: rqCompute, cycles: d}
	c.post()
}

func (c *stepCtx) Load(addr uint64) { c.access(addr, false) }

func (c *stepCtx) Store(addr uint64) { c.access(addr, true) }

// access posts a memory access. A Body guest's access that hits a
// resident page with nothing to split or hold it back is served on the
// spot (hitPosted). A Step guest's always takes the general path, so
// FuzzStepMatchesBody checks the one against the other.
func (c *stepCtx) access(addr uint64, write bool) {
	if t := c.t; t.co != nil && t.m.hitPosted(t, addr, write) {
		return
	}
	c.r = request{kind: rqAccess, addr: addr, write: write}
	c.post()
}

func (c *stepCtx) Call(fn string, args ...uint64) uint64 {
	return c.callSym(fn, args)
}

func (c *stepCtx) Call1(fn string, a0 uint64) uint64 {
	// The scratch buffer lives in the (heap-resident) task, so slicing
	// it does not allocate; LibFunc implementations are forbidden from
	// retaining args.
	c.argbuf[0] = a0
	return c.callSym(fn, c.argbuf[:1])
}

// callSym runs library symbol fn in this context, charging the PLT
// indirection.
func (c *stepCtx) callSym(fn string, args []uint64) uint64 {
	f := c.bind(fn)
	// PLT indirection cost, then the callee runs in this context.
	c.Compute(pltCost)
	return f(c, args)
}

// bind returns the task's binding of fn, resolving it through the
// link map at fn's first call, the way ld.so's lazy PLT binding does.
// The bindings live on the task's coroutine (coro.syms). A Step task
// has none and cannot call library code: it is Routine code, which
// has no resumable form.
func (c *stepCtx) bind(fn string) guest.LibFunc {
	co := c.t.co
	if co == nil {
		panic(fmt.Sprintf("kernel: flyweight task %v called %q (library code has no resumable form; spawn with Body)", c.t.p, fn))
	}
	for _, s := range co.syms {
		if s.name == fn {
			return s.f
		}
	}
	lm := c.t.linkMap
	if lm == nil {
		panic(fmt.Sprintf("kernel: task %v calls %q with no link map (not exec'd)", c.t.p, fn))
	}
	f, _, ok := lm.Resolve(fn)
	if !ok {
		panic(fmt.Sprintf("kernel: undefined symbol %q in %v", fn, c.t.p))
	}
	co.syms = append(co.syms, boundSym{name: fn, f: f})
	return f
}

// Syscall parses name once, as it posts; a name outside the syscall
// table is a guest bug and panics.
func (c *stepCtx) Syscall(name string) error {
	sys, ok := lookupSyscall(name)
	if !ok {
		panic(fmt.Sprintf("kernel: unknown syscall %q in %v", name, c.t.p))
	}
	c.r = request{kind: rqSyscall, sys: sys}
	return c.post().Err
}

func (c *stepCtx) Fork(name string, body guest.Routine) proc.PID {
	c.r = request{kind: rqFork, name: name, body: body}
	return proc.PID(c.post().Ret)
}

func (c *stepCtx) SpawnThread(name string, body guest.Routine) proc.PID {
	c.r = request{kind: rqThread, name: name, body: body}
	return proc.PID(c.post().Ret)
}

func (c *stepCtx) Wait() (guest.WaitResult, bool) {
	c.r = request{kind: rqWait}
	r := c.post()
	return r.Wres, r.OK
}

func (c *stepCtx) Exit(code int) {
	panic(exitPanic{code: code})
}

func (c *stepCtx) Yield() {
	c.r = request{kind: rqYield}
	c.post()
}

func (c *stepCtx) Sleep(d sim.Cycles) {
	c.r = request{kind: rqSleep, cycles: d}
	c.post()
}

func (c *stepCtx) SetNice(n int) {
	c.r = request{kind: rqNice, nice: n}
	c.post()
}

// The pure reads and Setenv touch state directly: the engine waits
// while guest code runs, and no other task writes this one's state
// once it runs.

func (c *stepCtx) Nice() int {
	return c.t.p.Nice()
}

func (c *stepCtx) Getenv(key string) string {
	return c.t.p.Env[key]
}

func (c *stepCtx) Setenv(key, value string) {
	c.t.p.Setenv(key, value)
}

func (c *stepCtx) FindProcess(name string) (proc.PID, bool) {
	c.r = request{kind: rqFind, name: name}
	r := c.post()
	return proc.PID(r.Ret), r.OK
}

func (c *stepCtx) Rand() *sim.Rand {
	return c.t.m.rng
}

func (c *stepCtx) Ptrace(req guest.PtraceRequest, pid proc.PID, addr, data uint64) error {
	c.r = request{kind: rqPtrace, ptReq: req, ptPid: pid, ptAddr: addr, ptData: data}
	return c.post().Err
}

func (c *stepCtx) Usage() (user, system sim.Cycles) {
	c.r = request{kind: rqUsage}
	r := c.post()
	return r.User, r.Sys
}

func (c *stepCtx) ClockNow() sim.Cycles {
	c.r = request{kind: rqClock}
	return sim.Cycles(c.post().Ret)
}

// NetSend stamps the frame with the machine's fabric address, which
// never changes during the machine's life, and sends it as NetForward
// does.
func (c *stepCtx) NetSend(f guest.Frame) (bool, error) {
	f.Src = c.t.m.nic.Addr()
	return c.NetForward(f)
}

func (c *stepCtx) NetForward(f guest.Frame) (bool, error) {
	c.r = request{kind: rqNetSend, Resume: guest.Resume{Frame: f}}
	r := c.post()
	return r.OK, r.Err
}

func (c *stepCtx) NetRecv() (guest.Frame, bool, error) {
	c.r = request{kind: rqNetRecv}
	r := c.post()
	return r.Frame, r.OK, r.Err
}

func (c *stepCtx) NetAddr() guest.Addr {
	return c.t.m.nic.Addr()
}

func (c *stepCtx) NetRxWait(seen uint64) uint64 {
	c.r = request{kind: rqNetRxWait, addr: seen}
	return c.post().Ret
}

// Exec loads a program image: the kernel charges execve and dynamic
// linking, builds the link map, and records integrity measurements;
// then constructors, main, and destructors run here in guest context,
// exactly the sandwich of Fig. 2 in the paper.
func (c *stepCtx) Exec(prog *guest.Program) {
	if c.t.body == nil {
		panic(fmt.Sprintf("kernel: flyweight task %v used Exec (program images run Routine code; spawn with Body)", c.t.p))
	}
	c.r = request{kind: rqExec, prog: prog}
	if err := c.post().Err; err != nil {
		panic(fmt.Sprintf("kernel: exec %q: %v", prog.Name, err))
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

// stepRun runs a task's activations: the first when the task has
// never run, then one per granted request. It returns when the task's
// posted request is left pending (blocked, a barrier fired, or the CPU
// was lost) or the task exited, whose exit it then posts.
func (m *Machine) stepRun(t *task) {
	var exited bool
	var code int
	if t.body != nil {
		exited, code = m.resumeBody(t)
	} else {
		exited, code = m.stepLoop(t)
	}
	if !exited {
		return
	}
	c := &t.stepCtx
	if c.posted {
		panic(fmt.Sprintf("kernel: flyweight task %v exited with a request in flight", t.p))
	}
	t.stepFn = nil
	// Post the exit like any request; if the task no longer owns the
	// CPU it waits for dispatch.
	c.r = request{kind: rqExit, code: code}
	t.cur = &c.r
	m.beginPosted(t)
}

// resumeBody resumes a Body task's code on its coroutine, bound at the
// first activation, until the code leaves a request pending (exited
// false) or ends. An ended guest's coroutine goes back to the machine
// for the next Body task.
func (m *Machine) resumeBody(t *task) (exited bool, code int) {
	if !t.started {
		t.started = true
		t.co = m.bindCoro(t)
	}
	co := t.co
	co.resume()
	if !co.ended {
		return false, 0
	}
	co.ended = false
	t.co = nil
	m.idle = append(m.idle, co)
	return true, co.code
}

// bindCoro binds an idle coroutine to t, making one when none is idle.
func (m *Machine) bindCoro(t *task) *coro {
	var co *coro
	if n := len(m.idle); n > 0 {
		co = m.idle[n-1]
		m.idle = m.idle[:n-1]
	} else {
		co = &coro{}
		co.resume, co.stop = iter.Pull(co.run)
		m.coros = append(m.coros, co)
	}
	co.t = t
	co.syms = co.syms[:0]
	return co
}

// stepLoop runs activations until the task blocks (exited false) or
// exits — by returning nil or by an Exit call, whose exitPanic the
// single deferred recover converts into a return. One recover covers
// the whole batch, so a steady-state activation costs a plain
// indirect call, not a defer arm/disarm.
func (m *Machine) stepLoop(t *task) (exited bool, code int) {
	c := &t.stepCtx
	defer func() {
		if r := recover(); r != nil {
			ep, ok := r.(exitPanic)
			if !ok {
				panic(r)
			}
			exited, code = true, ep.code
		}
	}()
	for {
		c.posted = false
		var next guest.Step
		if !t.started {
			t.started = true
			next = t.stepFn(c, guest.Resume{})
		} else if t.granted {
			t.granted = false
			next = t.stepFn(c, c.r.Resume)
		} else {
			return false, 0
		}
		if next == nil {
			return true, 0
		}
		if !c.posted {
			panic(fmt.Sprintf("kernel: flyweight task %v returned a continuation without posting a request (an activation must post or exit)", t.p))
		}
		t.stepFn = next
	}
}
