package kernel

import (
	"fmt"
	"iter"

	"repro/internal/guest"
	"repro/internal/proc"
	"repro/internal/sim"
)

// This file is the kernel's only guest driver: the activation loop.
// The engine runs one activation per granted request on the goroutine
// driving the machine, and an activation posts its next request
// through beginPosted, which services it inline while the task keeps
// the CPU. A guest is written one of two ways:
//
//   - SpawnConfig.Step: a resumable state machine (guest.Step) with no
//     goroutine and no parked stack. An activation is one call of its
//     continuation.
//   - SpawnConfig.Body: blocking Go code (guest.Routine), as libc,
//     libm, program images and attacks are written. An activation
//     resumes the code on the task's coroutine (see coro), which runs
//     on through every request granted inline and yields only when a
//     request is left pending.
//
// Both post through the same stepCtx, so a guest's request sequence —
// not how it is written — determines the machine's history.

// stepCtx implements guest.Context for a flyweight task and holds
// every task's single reusable request. Its posting methods do not
// block — they post the request, run the engine's inter-request
// bookkeeping (which may service the request synchronously), and
// return zero values. The real reply is delivered as the next
// activation's Resume; a Body guest's guestCtx reads it from r.
type stepCtx struct {
	t *task
	r request
	// posted marks this activation's single allowed post.
	posted bool
}

var _ guest.Context = (*stepCtx)(nil)

// post offers the request already written into c.r to the engine. A
// guest never drives the engine; it returns to whoever does. Callers
// assign c.r with a full struct literal first — assigning in
// place rather than passing the request by value keeps a post to a
// single struct copy, which the activation loop is hot enough to feel.
func (c *stepCtx) post() {
	if c.posted {
		panic(fmt.Sprintf("kernel: flyweight task %v posted two requests in one activation (a kernel request must be the activation's last action)", c.t.p))
	}
	c.posted = true
	t := c.t
	t.cur = &c.r
	t.m.beginPosted(t)
}

// takeResume harvests the serviced request's reply fields.
func (c *stepCtx) takeResume() guest.Resume {
	r := &c.r
	return guest.Resume{
		OK:    r.wok,
		Ret:   r.ret,
		Err:   r.err,
		Frame: r.frame,
		Wres:  r.wres,
		User:  r.u,
		Sys:   r.s,
	}
}

func (c *stepCtx) PID() proc.PID { return c.t.p.PID }

func (c *stepCtx) Compute(d sim.Cycles) {
	if d == 0 {
		return
	}
	c.r = request{kind: rqCompute, cycles: d}
	c.post()
}

func (c *stepCtx) Load(addr uint64) {
	c.r = request{kind: rqAccess, addr: addr}
	c.post()
}

func (c *stepCtx) Store(addr uint64) {
	c.r = request{kind: rqAccess, addr: addr, write: true}
	c.post()
}

func (c *stepCtx) Call(fn string, args ...uint64) uint64 {
	panic(fmt.Sprintf("kernel: flyweight task %v used Call (library code has no resumable form; spawn with Body)", c.t.p))
}

func (c *stepCtx) Call1(fn string, a0 uint64) uint64 {
	panic(fmt.Sprintf("kernel: flyweight task %v used Call1 (library code has no resumable form; spawn with Body)", c.t.p))
}

func (c *stepCtx) Syscall(name string) error {
	c.r = request{kind: rqSyscall, name: name}
	c.post()
	return nil
}

func (c *stepCtx) Fork(name string, body guest.Routine) proc.PID {
	c.r = request{kind: rqFork, name: name, body: body}
	c.post()
	return 0
}

func (c *stepCtx) SpawnThread(name string, body guest.Routine) proc.PID {
	c.r = request{kind: rqThread, name: name, body: body}
	c.post()
	return 0
}

func (c *stepCtx) Wait() (guest.WaitResult, bool) {
	c.r = request{kind: rqWait}
	c.post()
	return guest.WaitResult{}, false
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

func (c *stepCtx) Nice() int {
	return c.t.p.Nice()
}

func (c *stepCtx) Getenv(key string) string {
	return c.t.p.Env[key]
}

func (c *stepCtx) Setenv(key, value string) {
	c.t.p.Env[key] = value
}

func (c *stepCtx) FindProcess(name string) (proc.PID, bool) {
	c.r = request{kind: rqFind, name: name}
	c.post()
	return 0, false
}

func (c *stepCtx) Rand() *sim.Rand {
	return c.t.m.rng
}

func (c *stepCtx) Ptrace(req guest.PtraceRequest, pid proc.PID, addr, data uint64) error {
	c.r = request{kind: rqPtrace, ptReq: req, ptPid: pid, ptAddr: addr, ptData: data}
	c.post()
	return nil
}

func (c *stepCtx) Usage() (user, system sim.Cycles) {
	c.r = request{kind: rqUsage}
	c.post()
	return 0, 0
}

func (c *stepCtx) ClockNow() sim.Cycles {
	c.r = request{kind: rqClock}
	c.post()
	return 0
}

func (c *stepCtx) NetSend(f guest.Frame) (bool, error) {
	c.r = request{kind: rqNetSend, frame: f}
	c.post()
	return false, nil
}

func (c *stepCtx) NetForward(f guest.Frame) (bool, error) {
	c.r = request{kind: rqNetForward, frame: f}
	c.post()
	return false, nil
}

func (c *stepCtx) NetRecv() (guest.Frame, bool, error) {
	c.r = request{kind: rqNetRecv}
	c.post()
	return guest.Frame{}, false, nil
}

func (c *stepCtx) NetAddr() guest.Addr {
	return c.t.m.nic.Addr()
}

func (c *stepCtx) NetRx() uint64 {
	c.r = request{kind: rqNetRx}
	c.post()
	return 0
}

func (c *stepCtx) NetRxWait(seen uint64) uint64 {
	c.r = request{kind: rqNetRxWait, addr: seen}
	c.post()
	return 0
}

func (c *stepCtx) Exec(prog *guest.Program) {
	panic(fmt.Sprintf("kernel: flyweight task %v used Exec (program images run Routine code; spawn with Body)", c.t.p))
}

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
	co.ctx.t = t
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
			// takeResume in the argument position lets the inlined
			// literal build directly in the callee's frame — one Resume
			// copy per activation, not three.
			next = t.stepFn(c, c.takeResume())
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
