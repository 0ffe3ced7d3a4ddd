package kernel

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/lib"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Ptrace errors surfaced to guests.
var (
	ErrPtraceNoSuchProcess = errors.New("ptrace: no such process")
	ErrPtraceAlreadyTraced = errors.New("ptrace: already traced")
	ErrPtraceNotStopped    = errors.New("ptrace: tracee not stopped")
	ErrPtraceNotTracer     = errors.New("ptrace: caller is not the tracer")
	ErrPtraceBadRegister   = errors.New("ptrace: unsupported user offset")
)

// beginRequest services one guest request. Kernel services are
// non-preemptible lumps (the 2.6-era server configuration); only
// rqCompute burns preemptibly.
func (m *Machine) beginRequest(t *task, r *request) {
	st := t.st
	c := m.cpu.Costs()

	switch r.kind {
	case rqCompute:
		t.pendingUser = r.cycles

	case rqAccess:
		m.serviceAccess(t, r, false)

	case rqSyscall:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[r.sys], cpu.Kernel, t)
		// An injected fault fails the request after the full
		// entry/service/exit path — the kernel did the work and then
		// the device said no, so the billing is identical either way.
		if e, hit := m.injectFault(r.sys); hit {
			r.Err = e
		}
		m.grantNow(t)

	case rqFork:
		st.Forks++
		st.Syscalls++
		m.chargedAdvance(c.Fork, cpu.Kernel, t)
		child := m.doFork(t, r.name, r.body, false)
		r.Ret = uint64(child.PID)
		m.grantNow(t)

	case rqThread:
		st.ThreadsSpawned++
		st.Syscalls++
		m.chargedAdvance(c.Fork/2, cpu.Kernel, t) // clone with shared mm is cheaper
		child := m.doFork(t, r.name, r.body, true)
		r.Ret = uint64(child.PID)
		m.grantNow(t)

	case rqWait:
		st.Syscalls++
		m.chargedAdvance(c.Wait, cpu.Kernel, t)
		res, found, has := m.waitScan(t)
		switch {
		case found:
			r.Wres, r.OK = res, true
			m.grantNow(t)
		case !has:
			r.OK = false
			m.grantNow(t)
		default:
			t.waitingChild = true
			t.blockedAt = m.clock.Now()
			m.blockCurrent(proc.Blocked)
		}

	case rqExit:
		m.chargedAdvance(c.ProcessExit, cpu.Kernel, t)
		t.cur = nil
		m.doExit(t, r.code)

	case rqYield:
		st.Syscalls++
		m.chargedAdvance(c.SyscallEntry+c.SchedPick+c.SyscallExit, cpu.Kernel, t)
		m.grantNow(t)
		if m.sched.Runnable() > 0 {
			t.p.State = proc.Ready
			m.enqueue(t)
			m.current = nil
		}

	case rqSleep:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[sysGettime], cpu.Kernel, t)
		wakeAt := m.clock.Now() + r.cycles
		t.blockedAt = m.clock.Now()
		m.blockCurrent(proc.Blocked)
		m.queue.ScheduleTagged(wakeAt, "sleep-wake", uint64(t.p.PID), t.sleepFn())

	case rqNice:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[sysGettime], cpu.Kernel, t)
		t.p.SetNice(r.nice)
		m.grantNow(t)

	case rqPtrace:
		st.Syscalls++
		r.Err = m.doPtrace(t, r)
		m.grantNow(t)

	case rqUsage:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[sysGetrusage], cpu.Kernel, t)
		m.flushRun()
		u := m.acct.Usage(t.p.TGID)
		r.User, r.Sys = u.User, u.System
		m.grantNow(t)

	case rqExec:
		st.Syscalls++
		r.Err = m.doExec(t, r.prog)
		m.grantNow(t)

	case rqFind:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[sysStat], cpu.Kernel, t)
		if p, ok := m.table.Find(r.name); ok {
			r.Ret, r.OK = uint64(p.PID), true
		}
		m.grantNow(t)

	case rqClock:
		st.Syscalls++
		// clock_gettime(CLOCK_MONOTONIC): the read itself is the
		// syscall service; the returned instant is the clock after the
		// service, the moment control returns to the guest.
		m.chargedAdvance(m.sysCost[sysGettime], cpu.Kernel, t)
		r.Ret = uint64(m.clock.Now())
		m.grantNow(t)

	case rqNetSend:
		st.Syscalls++
		if e, hit := m.injectFault(sysSendto); hit {
			// The syscall fails before reaching the driver: entry/
			// service/exit are billed but not the tx path, and the NIC
			// never sees the frame.
			m.chargedAdvance(m.sysCost[sysSendto], cpu.Kernel, t)
			r.Err = e
			m.grantNow(t)
			break
		}
		// sendto entry/service/exit, then the driver's tx path — ring
		// descriptor fill and doorbell — all system time of the sender.
		m.chargedAdvance(m.sysCost[sysSendto]+c.NICTx, cpu.Kernel, t)
		r.OK = m.nic.Transmit(r.Frame)
		m.grantNow(t)

	case rqNetRecv:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[sysRead], cpu.Kernel, t)
		if e, hit := m.injectFault(sysRead); hit {
			// The read fails after the billed service; any buffered
			// frame stays queued for the retry.
			r.Err = e
			m.grantNow(t)
			break
		}
		r.Frame, r.OK = m.popRxFrame()
		m.grantNow(t)

	case rqNetRxWait:
		st.Syscalls++
		m.chargedAdvance(m.sysCost[sysRead], cpu.Kernel, t)
		if n := m.nic.Received(); n > r.addr {
			r.Ret = n
			m.grantNow(t)
			break
		}
		// Block until the NIC delivers a fresh frame; nicRx completes
		// the request. Wait order is block order (deterministic).
		t.blockedAt = m.clock.Now()
		m.blockCurrent(proc.Blocked)
		m.netWaiters = append(m.netWaiters, t)

	default:
		panic(fmt.Sprintf("kernel: unknown request kind %d from %v", r.kind, t.p))
	}
}

// serviceAccess performs one guest memory access: watchpoint check,
// then the paging path. skipWatch resumes an access whose trap has
// already been taken.
func (m *Machine) serviceAccess(t *task, r *request, skipWatch bool) {
	c := m.cpu.Costs()
	st := t.st

	if !skipWatch && t.p.Tracer != nil && t.p.Debug.Matches(r.addr, r.write) {
		m.debugTrap(t)
		return
	}
	t.watchFired = false

	// The access itself: a couple of user-mode cycles.
	m.chargedAdvance(accessCost, cpu.User, t)

	res := t.p.Space.Touch(r.addr, r.write)
	switch res.Kind {
	case mem.NoFault:
		// Fall through to grant.
	case mem.MinorFault:
		st.MinorFaults++
		m.chargedAdvance(c.MinorFault, cpu.Kernel, t)
	case mem.MajorFault:
		st.MajorFaults++
		m.chargedAdvance(c.MajorFault+c.DiskAccessSetup, cpu.Kernel, t)
		// OOM killer: a task whose footprint dominates RAM and keeps
		// major-faulting is killed, as the paper observes ("a
		// process will be killed by the kernel due to lack of
		// physical memory"), which caps the exception-flood attack.
		if st.MajorFaults > m.oomLimit() &&
			t.p.Space.FootprintPages() > m.mem.TotalFrames()/2 {
			st.SignalsReceived++
			m.doExit(t, 137) // SIGKILL
			return
		}
	}
	// Dirty evictions queue asynchronous writeback: kernel setup time
	// now, disk occupancy later, no blocking for this task. The
	// completion interrupt (machine's writebackFire) is billed to
	// whichever task is then current.
	for i := 0; i < res.SwapOuts; i++ {
		m.chargedAdvance(c.DiskAccessSetup, cpu.Kernel, t)
		m.disk.SubmitWrite()
	}

	if res.Kind == mem.MajorFault {
		// Block until the swap-in completes (IRQ first, then wake).
		t.blockedAt = m.clock.Now()
		m.blockCurrent(proc.Blocked)
		m.disk.SubmitTagged(uint64(t.p.PID), t.swapInFn())
		return
	}
	m.grantNow(t)
}

// accessCost is the user-mode cost of one explicit guest memory
// access (a handful of cycles; guests model bulk work via Compute).
const accessCost sim.Cycles = 4

// debugTrap handles a hardware watchpoint hit: the #DB exception,
// SIGTRAP delivery to the traced task, and the stop that hands
// control to the tracer. All of it is kernel work in the victim's
// context — the thrashing attack's whole effect (Fig. 9).
func (m *Machine) debugTrap(t *task) {
	c := m.cpu.Costs()
	st := t.st
	st.DebugExceptions++
	st.TraceStops++
	st.SignalsReceived++
	m.chargedAdvance(c.DebugException+c.SignalDeliver+c.PtraceStop, cpu.Kernel, t)
	// When the tracer resumes this task, finish the interrupted
	// access (without re-trapping) at next dispatch.
	t.watchFired = true
	t.stopReported = false
	m.blockCurrent(proc.Stopped)
	m.notifyWaiters(t)
}

// doFork creates a child task. thread selects CLONE_VM|CLONE_THREAD
// semantics: shared address space and thread group.
func (m *Machine) doFork(t *task, name string, body guest.Routine, thread bool) *proc.Proc {
	child := m.newProc(name, t.p)
	child.SetNice(t.p.Nice())
	if thread {
		child.TGID = t.p.TGID
		child.Space = t.p.Space
	} else {
		child.Space = m.newSpace(name)
	}
	ct := m.newTask(child, body)
	ct.recyclable = true
	ct.linkMap = t.linkMap
	ct.image, ct.imageDigest = t.image, t.imageDigest
	m.groupCount[child.TGID]++
	if !thread && t.image != nil {
		// The child initially executes the parent's image (between
		// fork and any exec) — the window the shell attack exploits.
		m.measure(child, MeasureInherited, t.image.Name, t.imageDigest)
	}
	child.State = proc.Ready
	m.live++
	m.enqueue(ct)
	if m.current != nil && m.sched.ShouldPreempt(m.current.p, child) {
		m.schedulePreempt(child.Nice())
	}
	return child
}

// doExec replaces the task image: links libraries per LD_PRELOAD,
// charges loader work, and records integrity measurements.
func (m *Machine) doExec(t *task, prog *guest.Program) error {
	if t.p.IsThread() {
		return fmt.Errorf("exec: %v is a thread", t.p)
	}
	lm, err := lib.BuildLinkMap(m.reg, t.p.Env[lib.PreloadEnv], prog.Libs)
	if err != nil {
		return err
	}
	c := m.cpu.Costs()
	m.chargedAdvance(c.Execve, cpu.Kernel, t)
	m.chargedAdvance(c.DynamicLink*sim.Cycles(1+len(lm.Libraries())), cpu.Kernel, t)
	t.linkMap = lm
	t.co.syms = t.co.syms[:0]
	t.image = prog
	t.imageDigest = ProgramDigest(prog.Name, prog.Content)
	t.billable = true
	m.measure(t.p, MeasureProgram, prog.Name, t.imageDigest)
	for _, l := range lm.Libraries() {
		m.measure(t.p, MeasureLibrary, l.Name, l.Digest())
	}
	return nil
}

// doExit turns the current task into a zombie, releases resources,
// and notifies whoever is waiting.
func (m *Machine) doExit(t *task, code int) {
	t.p.ExitCode = code
	t.cur = nil
	// A Body guest killed mid-request never resumes; its coroutine
	// stays suspended in post, holding &t.stepCtx, until shutdown stops
	// it, so its shells are never recycled.
	if t.co != nil {
		t.recyclable = false
	}
	t.co = nil
	m.blockCurrent(proc.Zombie)
	m.sched.Remove(t.p)
	m.live--

	// Detach and resume any tracees (ptrace detaches on tracer
	// exit), so a dead attacker cannot leave the victim frozen.
	for _, tr := range t.tracees {
		if tr.p.Tracer == t.p {
			tr.p.Tracer = nil
			tr.p.Debug = proc.DebugRegs{}
			tr.stopPending = false
			if tr.p.State == proc.Stopped {
				tr.p.State = proc.Ready
				m.enqueue(tr)
			}
		}
	}
	t.tracees = nil

	// Last task of the thread group: release the address space.
	m.groupCount[t.p.TGID]--
	if m.groupCount[t.p.TGID] <= 0 {
		delete(m.groupCount, t.p.TGID)
		if t.p.Space != nil {
			t.p.Space.Release()
		}
		leader := m.tasks[t.p.TGID]
		// A zombie leader becomes reapable once its last thread
		// exits; re-notify whoever waits on it, or reap it if no one
		// will.
		if t.p.IsThread() && leader != nil && leader.p.State == proc.Zombie {
			if unwatched(leader.p) {
				m.initReap(leader.p)
			} else {
				m.notifyWaiters(leader)
			}
		}
	}

	// Zombie children that no tracer will reap are orphaned now:
	// reap them as init would. A zombie leader with live threads is
	// reaped when its last thread exits.
	for i := len(t.p.Children) - 1; i >= 0; i-- {
		c := t.p.Children[i]
		if c.State == proc.Zombie && (c.IsThread() || m.groupCount[c.TGID] == 0) && unwatched(c) {
			m.initReap(c)
		}
	}

	if unwatched(t.p) {
		m.initReap(t.p)
		return
	}
	if parent := t.p.Parent; parent != nil && parent.Alive() {
		m.statOf(parent.TGID).SignalsReceived++ // SIGCHLD
	}
	m.notifyWaiters(t)
}

// unwatched reports whether neither a live parent nor a live tracer
// will reap p.
func unwatched(p *proc.Proc) bool {
	return (p.Parent == nil || !p.Parent.Alive()) && (p.Tracer == nil || !p.Tracer.Alive())
}

// initReap reaps p, which no one else will, as init would, folding its
// accounting into the system bucket.
func (m *Machine) initReap(p *proc.Proc) {
	p.State = proc.Reaped
	m.reapCleanup(nil, p)
}

// reapCleanup retires a reaped task: folds its accounting and stats
// into the reaper (or the system bucket when reaper is nil), unlinks
// it from its parent, drops it from the tables, and recycles its
// shells. Thread-group accounting folds only when the group leader is
// reaped, since threads share the leader's TGID ledger. A billable
// group keeps its ledger entries and stats, so its bill can still be
// read.
func (m *Machine) reapCleanup(reaper, child *proc.Proc) {
	reaperTGID := metering.SystemPID
	if reaper != nil {
		reaperTGID = reaper.TGID
	}
	ct := m.tasks[child.PID]
	if !child.IsThread() {
		m.flushRun()
		billable := ct != nil && ct.billable
		m.acct.OnReap(reaperTGID, child.TGID, billable)
		if cs := m.stats[child.TGID]; cs != nil && !billable {
			if reaper != nil {
				m.statOf(reaperTGID).absorb(cs)
			}
			delete(m.stats, child.TGID)
			// A group that never spawned a thread had one task, reaped
			// here, and no pending event or list reaches a reaped task's
			// record: recycle it, and unlink it so a stray use fails.
			if ct != nil && cs.ThreadsSpawned == 0 {
				ct.st = nil
				m.freeStats = append(m.freeStats, cs)
			}
		}
	}
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	// A tracer that reaps its own tracee through its children drops
	// it here: no entry of tracees may outlive its task.
	if tr := child.Tracer; tr != nil && ct != nil {
		if tt := m.tasks[tr.PID]; tt != nil {
			if i := slices.Index(tt.tracees, ct); i >= 0 {
				tt.tracees = slices.Delete(tt.tracees, i, i+1)
			}
		}
	}
	delete(m.tasks, child.PID)
	m.table.Remove(child.PID)
	if ct != nil {
		m.recycle(ct)
	}
}

// recycle puts the shells of t, a task just reaped, on the machine's
// free lists, where Spawn and doFork take them before they allocate:
// the task, its PCB with its scheduler record, and its address space
// once released. A shell goes back only when nothing can reach it any
// more, so a reused shell replays the history a fresh one would.
// recycle keeps all of t's shells when
//   - doFork did not make t (recyclable is false): Spawn hands its PCB
//     to the caller, and a Body guest killed mid-request stays parked
//     in post, holding &t.stepCtx, until shutdown;
//   - t has cycles still to flush (a reaped thread, since reapCleanup
//     flushes only for a group leader): flushRun would bill them to the
//     shell's next owner;
//   - t is on netWaiters: nicRx drops a stale entry only while its task
//     is dead;
//   - t's PCB still has children: it is their Parent, and an orphan
//     whose parent's shell were reused would have a live parent again.
//
// A tracee's Tracer never points at a dead task (doExit detaches every
// tracee of an exiting tracer), and recycle forgets lastRun, so the
// shell's next owner still pays its context switch at dispatch.
func (m *Machine) recycle(t *task) {
	p := t.p
	if !t.recyclable || t.unbilledUser != 0 || t.unbilledSys != 0 ||
		len(p.Children) > 0 || slices.Contains(m.netWaiters, t) {
		return
	}
	if m.lastRun == t {
		m.lastRun = nil
	}
	if m.spare == nil {
		m.spare = new(shells)
	}
	s := m.spare
	if !p.IsThread() && p.Space.Released() {
		s.spaces = append(s.spaces, p.Space)
	}
	m.sched.Recycle(p)
	s.procs = append(s.procs, p)
	s.tasks = append(s.tasks, t)
}

// notifyWaiters completes a pending Wait in the parent and/or tracer
// of subject, waking them after the scheduling latency.
func (m *Machine) notifyWaiters(subject *task) {
	watchers := make([]*proc.Proc, 0, 2)
	if p := subject.p.Parent; p != nil {
		watchers = append(watchers, p)
	}
	if tr := subject.p.Tracer; tr != nil && tr != subject.p.Parent {
		watchers = append(watchers, tr)
	}
	for _, w := range watchers {
		wt := m.tasks[w.PID]
		if wt == nil || !wt.waitingChild || wt.completed || wt.cur == nil {
			continue
		}
		res, found, _ := m.waitScan(wt)
		if !found {
			continue
		}
		wt.cur.Wres, wt.cur.OK = res, true
		wt.completed = true
		wt.waitingChild = false
		m.wakeAfterLatency(wt)
	}
}

// waitScan looks for a reportable child/tracee state change: a zombie
// child (reaped), a newly stopped child or tracee, or a zombie
// tracee (reported, not reaped). has reports whether any waitable
// task remains.
func (m *Machine) waitScan(t *task) (res guest.WaitResult, found, has bool) {
	for _, c := range t.p.Children {
		if c.State == proc.Reaped {
			continue
		}
		has = true
		ct := m.tasks[c.PID]
		switch {
		case c.State == proc.Zombie:
			if !c.IsThread() && m.groupCount[c.TGID] > 0 {
				// Zombie group leader with live threads: not
				// reapable until the group empties.
				continue
			}
			if c.Tracer != nil && c.Tracer != t.p && c.Tracer.Alive() {
				// A traced child is effectively reparented to its
				// tracer; the real parent reaps only after the
				// tracer observes the exit and releases it.
				continue
			}
			c.State = proc.Reaped
			res := guest.WaitResult{PID: c.PID, ExitCode: c.ExitCode}
			m.reapCleanup(t.p, c)
			return res, true, true
		case c.State == proc.Stopped && ct != nil && !ct.stopReported:
			if c.Tracer != nil && c.Tracer != t.p {
				// A ptraced child's stop notifications go to the
				// tracer, not the real parent.
				continue
			}
			ct.stopReported = true
			return guest.WaitResult{PID: c.PID, Stopped: true}, true, true
		}
	}
	for i, tr := range t.tracees {
		if tr.p.Tracer != t.p {
			continue
		}
		if tr.p.State == proc.Reaped {
			continue
		}
		has = true
		switch {
		case tr.p.State == proc.Stopped && !tr.stopReported:
			tr.stopReported = true
			return guest.WaitResult{PID: tr.p.PID, Stopped: true}, true, true
		case tr.p.State == proc.Zombie && !tr.stopReported:
			tr.stopReported = true
			res := guest.WaitResult{PID: tr.p.PID, ExitCode: tr.p.ExitCode}
			// Observing the exit releases the tracee back to its
			// real parent (implicit detach-at-death): drop the
			// trace link and let the parent reap — or reap here if
			// the parent is gone.
			tr.p.Tracer = nil
			t.tracees = append(t.tracees[:i:i], t.tracees[i+1:]...)
			if tr.p.Parent != nil && tr.p.Parent.Alive() {
				m.notifyWaiters(tr)
			} else {
				tr.p.State = proc.Reaped
				m.reapCleanup(t.p, tr.p)
			}
			return res, true, true
		}
	}
	return guest.WaitResult{}, false, has
}

// doPtrace implements the trace operations of Section IV-B2.
func (m *Machine) doPtrace(t *task, r *request) error {
	c := m.cpu.Costs()
	target, ok := m.tasks[r.ptPid]
	if !ok || !target.p.Alive() {
		return ErrPtraceNoSuchProcess
	}

	switch r.ptReq {
	case guest.PtraceAttach:
		if target.p.Tracer != nil {
			return ErrPtraceAlreadyTraced
		}
		m.chargedAdvance(m.sysCost[sysFutex], cpu.Kernel, t)
		target.p.Tracer = t.p
		t.tracees = append(t.tracees, target)
		// SIGSTOP: stop the target. Kernel-side stop bookkeeping is
		// the target's system time.
		tst := target.st
		tst.SignalsReceived++
		tst.TraceStops++
		m.advance(c.SignalDeliver+c.PtraceStop, cpu.Kernel, target)
		switch target.p.State {
		case proc.Ready:
			m.sched.Remove(target.p)
			target.p.State = proc.Stopped
		case proc.Blocked:
			// The stop applies when the blocking condition
			// completes (a blocked task cannot lose its in-flight
			// kernel request).
			target.stopPending = true
		case proc.Running:
			// Attaching to the current task would stop ourselves;
			// only possible if a task traces itself.
			return ErrPtraceNoSuchProcess
		}
		target.stopReported = false
		return nil

	case guest.PtracePokeUser:
		if target.p.Tracer != t.p {
			return ErrPtraceNotTracer
		}
		if target.p.State != proc.Stopped {
			return ErrPtraceNotStopped
		}
		m.chargedAdvance(m.sysCost[sysFutex], cpu.Kernel, t)
		switch r.ptAddr {
		case guest.DR0:
			target.p.Debug.DR0 = r.ptData
		case guest.DR7:
			target.p.Debug.DR7 = r.ptData
		default:
			return ErrPtraceBadRegister
		}
		return nil

	case guest.PtraceCont:
		if target.p.Tracer != t.p {
			return ErrPtraceNotTracer
		}
		if target.p.State != proc.Stopped {
			return ErrPtraceNotStopped
		}
		m.chargedAdvance(c.PtraceResume, cpu.Kernel, t)
		target.p.State = proc.Ready
		target.stopReported = false
		m.enqueue(target)
		if m.current != nil && m.sched.ShouldPreempt(m.current.p, target.p) {
			m.schedulePreempt(target.p.Nice())
		}
		return nil

	case guest.PtraceDetach:
		if target.p.Tracer != t.p {
			return ErrPtraceNotTracer
		}
		m.chargedAdvance(m.sysCost[sysFutex], cpu.Kernel, t)
		target.p.Tracer = nil
		target.p.Debug = proc.DebugRegs{}
		target.stopPending = false
		for i, tr := range t.tracees {
			if tr == target {
				t.tracees = append(t.tracees[:i:i], t.tracees[i+1:]...)
				break
			}
		}
		if target.p.State == proc.Stopped {
			target.p.State = proc.Ready
			m.enqueue(target)
		}
		return nil

	default:
		return fmt.Errorf("ptrace: unknown request %v", r.ptReq)
	}
}
