// Package kernel is the simulated operating system: a deterministic
// discrete-event machine tying together the CPU, memory, devices,
// scheduler, and accounting substrates. Guests run through
// guest.Context under one activation loop (step.go); exactly one
// goroutine (the engine's or one guest coroutine) executes at any
// instant, so identical seeds replay identical histories.
//
// The modelled execution mechanisms are the ones the paper's attacks
// exploit: CPU time is sampled per timer tick by the jiffy
// accountant; a fork's child is billed from creation; dynamic-linker
// and library-constructor work is billed to the process; interrupt
// handler time lands on whichever task is current; page-fault service
// is system time; ptrace stops are kernel work in the tracee's
// context; and wakeup preemption takes effect only after a
// priority-dependent latency, reflecting a non-preemptible kernel
// where a user-mode task keeps the CPU until the next scheduling
// point. That latency model is what reproduces Fig. 7's priority
// gradient.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/guest"
	"repro/internal/lib"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// DefaultHZ is the timer frequency (ticks per second) of the
// simulated kernel, matching a 2.6.29 desktop config (HZ=250, 4 ms
// jiffies; the paper notes ticks of 1–10 ms).
const DefaultHZ = 250

// Config assembles a Machine.
type Config struct {
	// Seed drives all randomness. Runs with equal seeds and equal
	// workloads produce identical reports.
	Seed int64
	// CPUHz is the core frequency; zero selects 2.53 GHz.
	CPUHz sim.Hz
	// HZ is the timer tick rate; zero selects 250.
	HZ uint64
	// PhysMemBytes sizes RAM; zero selects 1 GiB.
	PhysMemBytes uint64
	// SchedulerPolicy is "o1" (default) or "cfs".
	SchedulerPolicy string
	// Accountants to run in parallel. Empty selects
	// jiffy + tsc + process-aware. The first is the billing scheme
	// (what getrusage-alike reads).
	Accountants []metering.Accountant
	// MaxSteps bounds the event loop as a runaway guard; zero means
	// unlimited.
	MaxSteps uint64
	// OOMMajorFaultLimit is the major-fault count after which a task
	// whose footprint dominates RAM is OOM-killed; zero selects 20000
	// (~100 s of sustained swap storming at 2007-era disk speed).
	OOMMajorFaultLimit uint64
	// RxBufFrames bounds the kernel's receive buffer (the frames
	// guests read via NetRecv), in frames; zero selects 1024. Frames
	// arriving with the buffer full are dropped there — input-queue
	// overflow on a host that cannot keep up.
	RxBufFrames uint64
	// Faults arms seeded syscall error injection (see FaultSpec). Nil
	// — or a spec whose probabilities are all zero — leaves every
	// history byte-identical to an unfaulted machine.
	Faults *FaultSpec
	// BootAt starts the machine's clock at a later virtual time — the
	// restart path of a crashed cluster machine, whose replacement
	// must join the fabric at the instant it rebooted rather than at
	// cycle zero. The first timer tick fires at BootAt + one jiffy.
	BootAt sim.Cycles
}

// Machine is one simulated host.
type Machine struct {
	cfg   Config
	cpu   *cpu.CPU
	clock *sim.Clock
	queue *sim.EventQueue
	rng   *sim.Rand
	mem   *mem.Memory
	nic   *device.NIC
	disk  *device.Disk
	table *proc.Table
	sched sched.Scheduler
	acct  *metering.Multi
	reg   *lib.Registry

	// unbilled lists the tasks that have run since the accountants last
	// heard of them, in first-run order; flushRun reports and empties it.
	unbilled []*task

	// sysCost is each syscall class's full charge (entry, service and
	// exit), resolved once in New.
	sysCost [numSysClasses]sim.Cycles

	tickCycles sim.Cycles
	nextTickAt sim.Cycles

	tasks   map[proc.PID]*task
	current *task
	lastRun *task
	live    int

	// netWaiters are tasks blocked in NetRxWait, in block order; the
	// NIC rx path completes their requests as frames arrive.
	netWaiters []*task

	// rxBuf is the kernel's bounded receive ring: addressed frames the
	// NIC delivered, awaiting a guest's NetRecv. Allocated lazily on
	// the first frame so solo machines (local floods, payload-less
	// injections) carry none. rxDropped counts frames that arrived
	// with the ring full.
	rxBuf     []device.Frame
	rxHead    int
	rxLen     int
	rxDropped uint64

	// Fault injection (Config.Faults): the armed entry of each syscall
	// class (nil when none is armed), the dedicated draw stream, and
	// the injected-failure count.
	faults         *[numSysClasses]SyscallFault
	faultRNG       *sim.Rand
	faultsInjected uint64

	needResched bool
	closed      bool

	// coros are every coroutine the machine has made for Body guests;
	// idle are those whose guest ended, ready for the next Body task.
	coros []*coro
	idle  []*coro

	// RunUntil support: barrierFire is the reusable barrier-event
	// callback that raises pauseReq; the activation loop stops at
	// pauseReq and returns to the RunUntil caller, leaving any posted
	// request for the next RunUntil to service.
	pauseReq    bool
	barrierFire func()

	// timerFire/preemptFire/writebackFire are the recurring event
	// callbacks, built once so re-arming the timer, scheduling a
	// preemption point, or completing a background writeback does not
	// allocate a closure per occurrence. The disk owns writebackFire
	// and calls it at every writeback completion.
	timerFire     func()
	preemptFire   func()
	writebackFire func()

	stats map[proc.PID]*Stats
	// freeStats holds reaped thread groups' records that nothing holds
	// any more (see reapCleanup), for statOf to reuse.
	freeStats    []*Stats
	measurements []Measurement
	measuredKeys map[measureKey]bool

	// groupCount tracks live tasks per thread group; the last exit
	// releases the address space.
	groupCount map[proc.PID]int

	steps uint64

	// rio is the backlog of remote I/O this machine serves as the host
	// of a device other machines mount (see remoteio.go).
	rio remoteIO

	// spare holds the shells of reaped fork children (see recycle),
	// made at the first recycle. It is scratch, not machine state:
	// clone copies none of it, so an image keeps its size and parallel
	// restores of one image share no shell.
	spare *shells
}

// shells are the free lists behind newProc, newSpace and newTask, which
// take a shell from them before they allocate: tasks, PCBs (each with
// its scheduler record, which sched resets on recycle) and released
// address spaces.
type shells struct {
	tasks  []*task
	procs  []*proc.Proc
	spaces []*mem.Space
}

// take pops the most recently recycled shell off a non-empty list.
func take[T any](list *[]*T) *T {
	l := *list
	x := l[len(l)-1]
	l[len(l)-1] = nil
	*list = l[:len(l)-1]
	return x
}

// ErrDeadlock is returned by Run when live tasks remain but nothing
// can ever run again.
var ErrDeadlock = errors.New("kernel: deadlock: live tasks but no runnable task and no pending events")

// Validate reports a config New would reject: an unknown scheduler
// policy or a malformed fault spec (see FaultSpec.Validate).
func (cfg Config) Validate() error {
	switch cfg.SchedulerPolicy {
	case "", "o1", "cfs":
	default:
		return fmt.Errorf("unknown scheduler policy %q (have o1, cfs)", cfg.SchedulerPolicy)
	}
	return cfg.Faults.Validate()
}

// New builds a machine from cfg. An invalid cfg is a construction bug
// and panics; call Config.Validate first to get an error instead.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic("kernel: " + err.Error())
	}
	if cfg.CPUHz == 0 {
		cfg.CPUHz = sim.DefaultCPUHz
	}
	if cfg.HZ == 0 {
		cfg.HZ = DefaultHZ
	}
	m := newShell(cfg.Seed)
	m.cfg, m.reg = cfg, lib.StandardRegistry()
	m.cpu = cpu.New(cfg.CPUHz)
	m.clock = m.cpu.Clock()
	m.mem = mem.New(cfg.PhysMemBytes, 0)
	m.table = proc.NewTable()
	m.tickCycles = sim.Cycles(uint64(cfg.CPUHz) / cfg.HZ)
	c, perUs := m.cpu.Costs(), sim.Cycles(uint64(cfg.CPUHz)/1_000_000)
	for i, sc := range syscallTable {
		m.sysCost[i] = c.SyscallEntry + sc.us*perUs + c.SyscallExit
	}

	cyclesPerMs := sim.Cycles(uint64(cfg.CPUHz) / 1000)
	if cfg.SchedulerPolicy == "cfs" {
		m.sched = sched.NewCFS(cyclesPerMs)
	} else {
		m.sched = sched.NewO1(cyclesPerMs)
	}

	accts := cfg.Accountants
	if len(accts) == 0 {
		accts = []metering.Accountant{
			metering.NewJiffy(m.tickCycles),
			metering.NewTSC(),
			metering.NewProcessAware(),
		}
	}
	m.acct = metering.NewMulti(accts...)

	m.nic = device.NewNIC(m.queue, m.clock, m.rng, m.nicRx)
	m.disk = device.NewDisk(m.queue, m.clock, mem.DiskLatency(cfg.CPUHz), m.writebackFire)
	m.initFaults(cfg.Faults)

	// A restarted machine boots mid-history: fast-forward the clock to
	// the boot instant before arming anything.
	if cfg.BootAt > 0 {
		m.cpu.Idle(cfg.BootAt)
	}

	// Arm the periodic timer.
	m.nextTickAt = m.clock.Now() + m.tickCycles
	m.queue.Schedule(m.nextTickAt, sim.KindTimer, m.timerFire)
	return m
}

// newShell returns what New and a restore both build first: a
// machine's empty containers, its rng at seed, and its recurring event
// callbacks.
func newShell(seed int64) *Machine {
	m := &Machine{
		queue:        sim.NewEventQueue(),
		rng:          sim.NewRand(seed),
		tasks:        make(map[proc.PID]*task),
		stats:        make(map[proc.PID]*Stats),
		measuredKeys: make(map[measureKey]bool),
		groupCount:   make(map[proc.PID]int),
	}
	m.timerFire = m.timerTick
	m.preemptFire = func() { m.needResched = true }
	m.writebackFire = m.diskIRQ
	m.barrierFire = func() { m.pauseReq = true }
	return m
}

// Clock exposes the machine clock (read-only use).
func (m *Machine) Clock() *sim.Clock { return m.clock }

// CPU exposes the simulated core.
func (m *Machine) CPU() *cpu.CPU { return m.cpu }

// NIC exposes the network device (attacks start floods on it).
func (m *Machine) NIC() *device.NIC { return m.nic }

// Disk exposes the swap device.
func (m *Machine) Disk() *device.Disk { return m.disk }

// Registry exposes the shared-library store.
func (m *Machine) Registry() *lib.Registry { return m.reg }

// Scheduler exposes the active policy.
func (m *Machine) Scheduler() sched.Scheduler { return m.sched }

// Accountants exposes the accounting fan-out. Its ledgers hold every
// cycle run once Run or RunUntil has returned (see flushRun).
func (m *Machine) Accountants() *metering.Multi { return m.acct }

// TickCycles returns the jiffy length in cycles.
func (m *Machine) TickCycles() sim.Cycles { return m.tickCycles }

// Rand exposes the deterministic random source.
func (m *Machine) Rand() *sim.Rand { return m.rng }

// oomLimit returns the configured OOM major-fault threshold.
func (m *Machine) oomLimit() uint64 {
	if m.cfg.OOMMajorFaultLimit > 0 {
		return m.cfg.OOMMajorFaultLimit
	}
	return 20000
}

// Table exposes the process table.
func (m *Machine) Table() *proc.Table { return m.table }

// Stats returns the counters for a thread group (zero value if the
// group never ran).
func (m *Machine) Stats(tgid proc.PID) Stats {
	if s := m.stats[tgid]; s != nil {
		return *s
	}
	return Stats{}
}

// Measurements returns the code-identity log in load order (copy).
func (m *Machine) Measurements() []Measurement {
	out := make([]Measurement, len(m.measurements))
	copy(out, m.measurements)
	return out
}

// Usage returns the billing (first) accountant's view of a thread
// group, surviving the group's reaping.
func (m *Machine) Usage(tgid proc.PID) metering.Usage {
	accts := m.acct.Accountants()
	if len(accts) == 0 {
		return metering.Usage{}
	}
	u, _ := m.UsageBy(accts[0].Name(), tgid)
	return u
}

// UsageBy returns a named scheme's view of a thread group. A billable
// group's view survives its reaping; a reaped fork child's is zero.
func (m *Machine) UsageBy(scheme string, tgid proc.PID) (metering.Usage, bool) {
	a, ok := m.acct.ByName(scheme)
	if !ok {
		return metering.Usage{}, false
	}
	return a.Usage(tgid), true
}

// ChildrenUsageBy returns a scheme's accumulated reaped-children
// usage for a thread group (getrusage(RUSAGE_CHILDREN)), surviving
// a billable group's own reaping.
func (m *Machine) ChildrenUsageBy(scheme string, tgid proc.PID) (metering.Usage, bool) {
	a, ok := m.acct.ByName(scheme)
	if !ok {
		return metering.Usage{}, false
	}
	return a.ChildrenUsage(tgid), true
}

// SpawnConfig describes a kernel-spawned process (something init or
// a daemon would start, e.g. the shell or an attack process).
type SpawnConfig struct {
	Name string
	// Content is the image identity for integrity measurement.
	Content string
	Nice    int
	// Env is the initial environment (copied).
	Env map[string]string
	// Libs are linked at spawn (with Env's LD_PRELOAD honoured).
	// Nil links the full registry default set: libc and libm.
	Libs []string
	// Body is the guest as blocking code, run on a coroutine. Exactly
	// one of Body and Step must be set.
	Body guest.Routine
	// Step is the guest as a resumable state machine with no goroutine
	// and no parked stack (see guest.Step).
	Step guest.Step
	// Fork, when set on a Step task, makes the guest checkpointable:
	// Snapshot calls it to copy the guest's value and bind the copy's
	// continuation (guest.Resumable returns both). A Step task without
	// Fork — and any started Body task — makes the machine return
	// ErrNotSnapshottable.
	Fork guest.ForkFunc
}

// Spawn creates a runnable process outside any fork chain.
func (m *Machine) Spawn(sc SpawnConfig) (*proc.Proc, error) {
	if (sc.Body == nil) == (sc.Step == nil) {
		return nil, fmt.Errorf("spawn %s: exactly one of Body (blocking code) and Step (a resumable state machine) must be set", sc.Name)
	}
	p := m.newProc(sc.Name, nil)
	p.SetNice(sc.Nice)
	//simlint:unordered-ok map-to-map copy; insertion order cannot be observed
	for k, v := range sc.Env {
		p.Setenv(k, v)
	}
	p.Space = m.newSpace(sc.Name)
	linked := sc.Libs
	if linked == nil {
		for _, name := range []string{lib.LibcName, lib.LibmName} {
			if _, ok := m.reg.Get(name); ok {
				linked = append(linked, name)
			}
		}
	}
	lm, err := lib.BuildLinkMap(m.reg, p.Env[lib.PreloadEnv], linked)
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", sc.Name, err)
	}
	t := m.newTask(p, sc.Body)
	if sc.Step != nil {
		t.stepFn = sc.Step
		t.forkFn = sc.Fork
	}
	t.billable = true
	m.groupCount[p.TGID]++
	t.linkMap = lm
	t.image = &guest.Program{Name: sc.Name, Content: sc.Content}
	t.imageDigest = ProgramDigest(sc.Name, sc.Content)
	m.measure(p, MeasureProgram, sc.Name, t.imageDigest)
	for _, l := range lm.Libraries() {
		m.measure(p, MeasureLibrary, l.Name, l.Digest())
	}
	p.State = proc.Ready
	m.live++
	m.enqueue(t)
	return p, nil
}

// newProc registers a new process, on a recycled PCB when one is free.
func (m *Machine) newProc(name string, parent *proc.Proc) *proc.Proc {
	if m.spare != nil && len(m.spare.procs) > 0 {
		return m.table.Reuse(take(&m.spare.procs), name, parent)
	}
	return m.table.Create(name, parent)
}

// newSpace makes an address space, on a recycled one when one is free.
func (m *Machine) newSpace(name string) *mem.Space {
	if m.spare != nil && len(m.spare.spaces) > 0 {
		return m.mem.Reuse(take(&m.spare.spaces), name)
	}
	return m.mem.NewSpace(name)
}

// newTask makes the task that runs p, on a recycled task when one is
// free. A recycled task keeps only its callbacks, which are bound to it.
func (m *Machine) newTask(p *proc.Proc, body guest.Routine) *task {
	var t *task
	if m.spare != nil && len(m.spare.tasks) > 0 {
		t = take(&m.spare.tasks)
		*t = task{wakeFire: t.wakeFire, sleepFire: t.sleepFire, swapInFire: t.swapInFire}
	} else {
		t = new(task)
	}
	t.p, t.m, t.st, t.body = p, m, m.statOf(p.TGID), body
	t.stepCtx.t = t
	p.KernelData = t
	m.tasks[p.PID] = t
	return t
}

func (m *Machine) statOf(tgid proc.PID) *Stats {
	s := m.stats[tgid]
	if s == nil {
		if n := len(m.freeStats); n > 0 {
			s = m.freeStats[n-1]
			m.freeStats = m.freeStats[:n-1]
			*s = Stats{}
		} else {
			s = &Stats{}
		}
		m.stats[tgid] = s
	}
	return s
}

// measureKey identifies one distinct measurement for deduplication.
// A comparable struct key keeps the per-fork dedup lookup (inherited
// images are re-measured at every fork) free of string building.
type measureKey struct {
	kind         MeasurementKind
	name, digest string
}

// measure appends to the code-identity log. Entries are deduplicated
// by (kind, name, digest), as a real integrity measurement
// architecture measures each distinct binary once; this also bounds
// the log under fork storms.
func (m *Machine) measure(p *proc.Proc, kind MeasurementKind, name, digest string) {
	key := measureKey{kind: kind, name: name, digest: digest}
	if m.measuredKeys[key] {
		return
	}
	m.measuredKeys[key] = true
	m.measurements = append(m.measurements, Measurement{
		PID: p.PID, TGID: p.TGID, Kind: kind, Name: name, Digest: digest,
	})
}

// Run executes until every spawned task has exited. It returns
// ErrDeadlock if progress becomes impossible, or an error when
// MaxSteps is exceeded.
func (m *Machine) Run() error {
	defer m.shutdown()
	_, err := m.drive()
	return err
}

// RunUntil advances the machine until every spawned task has exited
// or virtual time reaches limit, whichever comes first. done reports
// that the machine finished (after which it is shut down and must not
// be advanced again); a false done with a nil error means the engine
// paused at the barrier and a later RunUntil may continue it. Driving
// the machine in barrier slices produces the exact history Run would:
// the barrier bounds every preemptible time advance, and only
// non-preemptible kernel service lumps may overrun it (by at most one
// lump). This is what lets a cluster interleave several machines in
// deterministic lockstep virtual time.
func (m *Machine) RunUntil(limit sim.Cycles) (done bool, err error) {
	if m.closed {
		return true, nil
	}
	if m.live == 0 {
		m.shutdown()
		return true, nil
	}
	if limit <= m.clock.Now() {
		return false, nil
	}
	// The barrier's tag is its time, which a snapshot refusal names.
	m.queue.ScheduleTagged(limit, "barrier", uint64(limit), m.barrierFire)
	done, err = m.drive()
	if done || err != nil {
		m.shutdown()
	}
	return done, err
}

// drive steps the engine until every task has exited (done), a
// RunUntil barrier fires, or the run fails. However it returns, it
// reports every cycle run to the accountants first.
func (m *Machine) drive() (done bool, err error) {
	defer m.flushRun()
	for m.live > 0 {
		if m.pauseReq {
			m.pauseReq = false
			return false, nil
		}
		if err := m.driveStep(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// NextWorkAt reports the virtual time at which this machine can next
// make progress: now if a task is on or ready for the CPU, otherwise
// the next pending event. ok is false when the machine can make no
// progress on its own — it has finished, or every remaining task is
// blocked on a condition only an external event (a cluster packet)
// can satisfy. The periodic timer tick does not count as work: ticks
// wake nothing, so a machine whose queue holds only its own ticks is
// idle until the network feeds it.
func (m *Machine) NextWorkAt() (at sim.Cycles, ok bool) {
	if m.closed || m.live == 0 {
		return 0, false
	}
	if m.current != nil || m.sched.Runnable() > 0 {
		return m.clock.Now(), true
	}
	if m.queue.PendingNonTimer() == 0 {
		return 0, false
	}
	return m.queue.PeekTime()
}

// Closed reports whether the machine has been shut down (finished or
// torn down); a closed machine can never deliver another event, so a
// cluster link counts frames sent to it as drops.
func (m *Machine) Closed() bool { return m.closed }

// Shutdown stops the machine's guest coroutines without running to
// completion. A cluster uses it to tear down remaining machines after
// one machine fails; Run and a completed RunUntil shut down
// automatically. Shutdown is idempotent, and the machine cannot be
// advanced afterwards.
func (m *Machine) Shutdown() { m.shutdown() }

// shutdown stops every coroutine the machine made, so none outlives
// it: an idle one returns, and one holding a guest mid-request unwinds
// the guest's code via killPanic. That includes the coroutine of a
// guest killed mid-request (OOM), whose task is already reaped.
func (m *Machine) shutdown() {
	if m.closed {
		return
	}
	m.closed = true
	for _, co := range m.coros {
		co.stop()
	}
	m.coros, m.idle = nil, nil
}

// fireDue pops and fires every event due at the current virtual time,
// recycling each through the queue's free list. It reports false when
// the machine has no live tasks left.
func (m *Machine) fireDue() bool {
	for {
		at, ok := m.queue.PeekTime()
		if !ok || at > m.clock.Now() {
			return true
		}
		e := m.queue.Pop()
		e.Fire()
		m.queue.Release(e)
		if m.live == 0 {
			return false
		}
	}
}

// driveStep advances the simulation by one action: firing a due
// event, dispatching, burning a compute span, or servicing one
// request, then running the guest whose request it granted.
func (m *Machine) driveStep() error {
	if m.cfg.MaxSteps > 0 && m.steps >= m.cfg.MaxSteps {
		return fmt.Errorf("kernel: exceeded %d steps at t=%d", m.cfg.MaxSteps, m.clock.Now())
	}
	m.steps++

	// Fire everything due now.
	if !m.fireDue() {
		return nil
	}
	if m.pauseReq {
		// A RunUntil barrier fired: stop before taking another
		// action; the drive loop suspends the engine here.
		return nil
	}

	if m.current != nil && m.needResched {
		m.preemptCurrent()
	}
	m.needResched = false

	if m.current == nil {
		if !m.dispatch() {
			// Nothing runnable: idle to the next event. A queue
			// holding only the periodic tick can never wake anyone,
			// so a solo machine in that state (every live task blocked
			// on input that cannot arrive) is deadlocked rather than
			// idle; in a cluster the RunUntil barrier is always
			// pending, so lockstep slices never trip this and the
			// cluster-level stall detector owns the verdict.
			at, ok := m.queue.PeekTime()
			if !ok || m.queue.PendingNonTimer() == 0 {
				return ErrDeadlock
			}
			m.cpu.Idle(at)
			return nil
		}
	}

	t := m.current
	switch {
	case !t.started:
		// The task's guest has never run: its first activation.
		m.stepRun(t)
		return nil
	case t.cur != nil && !t.begun:
		// A posted request not yet serviced (the task lost the CPU
		// between posting and dispatch, e.g. after a yield).
		t.begun = true
		m.beginRequest(t, t.cur)
	case t.cur != nil && t.pendingUser > 0:
		m.burnCompute(t)
	case t.watchFired:
		// A watchpoint-interrupted access resumes past its trap.
		m.serviceAccess(t, t.cur, true)
	case t.cur != nil && t.completed:
		// A blocked request (disk, wait, sleep) completed: grant it.
		m.grantNow(t)
	default:
		return fmt.Errorf("kernel: task %v dispatched with no serviceable work", t.p)
	}
	// A task whose request was just granted resumes here. The
	// dispatched task is checked rather than m.current: a yield grants
	// and then vacates the CPU, and the activation must still run.
	if t.granted {
		m.stepRun(t)
	}
	return nil
}

// dispatch picks the next task onto the CPU. Reports false when the
// runqueue is empty.
func (m *Machine) dispatch() bool {
	p := m.sched.PickNext()
	if p == nil {
		return false
	}
	t := p.KernelData.(*task)
	p.State = proc.Running
	m.current = t
	t.quantumLeft = m.sched.Quantum(p)
	if t != m.lastRun {
		t.st.ContextSwitches++
		m.chargedAdvance(m.cpu.Costs().ContextSwitch, cpu.Kernel, t)
	}
	m.lastRun = t
	return true
}

// preemptCurrent puts the running task back on the runqueue.
func (m *Machine) preemptCurrent() {
	t := m.current
	if t == nil {
		return
	}
	t.p.State = proc.Ready
	t.st.Preemptions++
	m.enqueue(t)
	m.current = nil
}

// blockCurrent removes the running task from the CPU without
// re-queueing (it is sleeping, waiting, stopped, or dead).
func (m *Machine) blockCurrent(state proc.State) {
	t := m.current
	t.p.State = state
	m.current = nil
}

// enqueue adds a task to the runqueue.
func (m *Machine) enqueue(t *task) {
	m.sched.Enqueue(t.p)
}

// wakeNow makes a blocked task runnable immediately. If scheduling
// policy says the woken task should take the CPU from the current
// one, the preemption is deferred to the next preemption point for
// the woken task's priority — never applied mid-jiffy on the spot.
// This models a non-preemptible kernel where a user-mode task keeps
// the CPU until the next scheduling opportunity (timer tick or other
// interrupt return); the density of those opportunities grows with
// the contender's priority. This deferral is what reproduces the
// scheduling attack of Fig. 7: the attacker's bursts are phase-locked
// just after scheduling points, so the victim is the task on the CPU
// whenever the accounting tick fires.
func (m *Machine) wakeNow(t *task) {
	if !t.p.Alive() || t.p.State == proc.Stopped || t.p.State == proc.Running {
		return
	}
	if t.p.State == proc.Ready {
		return // already runnable
	}
	if t.stopPending {
		// A SIGSTOP arrived while the task was blocked: it stops
		// instead of resuming, and the tracer learns of the stop.
		t.stopPending = false
		t.p.State = proc.Stopped
		t.stopReported = false
		m.notifyWaiters(t)
		return
	}
	t.p.State = proc.Ready
	m.enqueue(t)
	if m.current != nil && m.sched.ShouldPreempt(m.current.p, t.p) {
		m.schedulePreempt(t.p.Nice())
	}
}

// preemptPointsPerTick maps a contender's nice value to the number of
// sub-jiffy scheduling opportunities per tick at which it may preempt
// a running user-mode task: 2 at nice -5 up to 8 at nice -20.
// Non-negative nice gets none (it waits for quantum expiry).
func preemptPointsPerTick(nice int) sim.Cycles {
	if nice >= 0 {
		return 0
	}
	k := sim.Cycles(-nice) * 2 / 5
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return k
}

// schedulePreempt arms a reschedule at the next preemption point for
// a contender of the given nice value. Points lie on a grid of
// tick/k anchored at tick boundaries.
func (m *Machine) schedulePreempt(nice int) {
	k := preemptPointsPerTick(nice)
	if k == 0 {
		return
	}
	interval := m.tickCycles / k
	if interval == 0 {
		interval = 1
	}
	base := m.nextTickAt - m.tickCycles // current jiffy's start
	now := m.clock.Now()
	var at sim.Cycles
	if now < base {
		at = base
	} else {
		at = base + ((now-base)/interval+1)*interval
	}
	// Integer division can land the last grid point just shy of the
	// next tick — or, when interval does not divide the tick evenly,
	// past it. Snap both cases onto the tick: the wrap-prone
	// subtraction below is only meaningful for points inside the
	// jiffy, and the timer's charge (which fires first — earlier
	// event sequence number) still samples the task that ran up to
	// the boundary.
	if at >= m.nextTickAt || m.nextTickAt-at < interval/2 {
		at = m.nextTickAt
	}
	m.queue.Schedule(at, "preempt", m.preemptFire)
}

// wakeLatency returns the wakeup-to-runnable delay: a small fixed
// cost (~1/128 jiffy, ≈30 µs at HZ=250) modelling the wake-up path
// and runqueue placement.
func (m *Machine) wakeLatency() sim.Cycles {
	l := m.tickCycles / 128
	if l == 0 {
		l = 1
	}
	return l
}

// wakeAfterLatency schedules a wake after the wakeup latency. Duplicate
// requests while one is pending are coalesced.
func (m *Machine) wakeAfterLatency(t *task) {
	if t.wakePending {
		return
	}
	t.wakePending = true
	at := m.clock.Now() + m.wakeLatency()
	m.queue.ScheduleTagged(at, "wake", uint64(t.p.PID), t.wakeFn())
}

// timerTick is the periodic timer interrupt: sample-charge the
// current task (the jiffy scheme's whole mechanism), run the handler,
// and re-arm.
func (m *Machine) timerTick() {
	var cur *proc.Proc
	mode := m.cpu.Mode()
	if m.current != nil {
		cur = m.current.p
		m.current.st.TicksAbsorbed++
	}
	m.acct.OnTick(cur, mode)
	m.irqWork(device.IRQTimer, m.cpu.Costs().TimerHandler)
	m.nextTickAt += m.tickCycles
	m.queue.Schedule(m.nextTickAt, sim.KindTimer, m.timerFire)
}

// rxBufCap resolves the configured receive-ring bound.
func (m *Machine) rxBufCap() int {
	if m.cfg.RxBufFrames > 0 {
		return int(m.cfg.RxBufFrames)
	}
	return 1024
}

// pushRxFrame appends a delivered frame to the receive ring, dropping
// it (counted) when the ring is full.
func (m *Machine) pushRxFrame(f device.Frame) {
	if m.rxBuf == nil {
		m.rxBuf = make([]device.Frame, m.rxBufCap())
	}
	if m.rxLen == len(m.rxBuf) {
		m.rxDropped++
		return
	}
	m.rxBuf[(m.rxHead+m.rxLen)%len(m.rxBuf)] = f
	m.rxLen++
}

// popRxFrame removes the oldest buffered frame.
func (m *Machine) popRxFrame() (device.Frame, bool) {
	if m.rxLen == 0 {
		return device.Frame{}, false
	}
	f := m.rxBuf[m.rxHead]
	m.rxBuf[m.rxHead] = device.Frame{}
	m.rxHead = (m.rxHead + 1) % len(m.rxBuf)
	m.rxLen--
	return f, true
}

// RxBufDropped reports frames dropped at the full receive ring — the
// overload signal of a host (or router) that cannot drain its input
// queue as fast as the fabric fills it.
func (m *Machine) RxBufDropped() uint64 { return m.rxDropped }

// nicRx services one received packet — parking any addressed frame in
// the receive ring for NetRecv — then completes any NetRxWait whose
// threshold the delivery crossed (softirq hands the frame to the
// socket and the scheduler wakes the reader after the usual wakeup
// latency).
func (m *Machine) nicRx() {
	// Park the frame before advancing time: irqWork can fire nested
	// deliveries whose frames must land in the ring after this one.
	if f, ok := m.nic.TakeRxFrame(); ok {
		m.pushRxFrame(f)
	}
	c := m.cpu.Costs()
	m.irqWork(device.IRQNIC, c.IRQEntry+c.IRQHandlerNIC+c.IRQExit)
	if len(m.netWaiters) == 0 {
		return
	}
	n := m.nic.Received()
	kept := m.netWaiters[:0]
	for _, t := range m.netWaiters {
		if !t.p.Alive() || t.cur == nil || t.completed {
			continue // stale entry: drop
		}
		if n > t.cur.addr {
			t.cur.Ret = n
			t.completed = true
			m.wakeAfterLatency(t)
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(m.netWaiters); i++ {
		m.netWaiters[i] = nil
	}
	m.netWaiters = kept
}

// diskIRQ runs the disk completion interrupt: entry, the completion
// handler body, and the iret path, billed to whichever task is then
// current like any IRQ. This is one of Fig. 11's inflation channels:
// the memory hog's I/O completions land on the victim.
func (m *Machine) diskIRQ() {
	c := m.cpu.Costs()
	m.irqWork(device.IRQDisk, c.IRQEntry+c.IRQHandlerDisk+c.IRQExit)
}

// irqWork advances wall time through an interrupt handler and reports
// it to the accountants against whichever task is current.
func (m *Machine) irqWork(irq device.IRQ, cost sim.Cycles) {
	prev := m.cpu.Mode()
	var cur *proc.Proc
	if m.current != nil {
		cur = m.current.p
		m.current.st.IRQCycles += cost
	}
	m.advance(cost, cpu.Interrupt, nil)
	m.acct.OnInterrupt(irq, cur, cost)
	m.cpu.SetMode(prev)
}

// advance moves virtual time forward by d cycles in the given mode,
// splitting at event boundaries so interleaved interrupts observe the
// true machine state. owner, when non-nil, accrues the cycles.
func (m *Machine) advance(d sim.Cycles, md cpu.Mode, owner *task) {
	for d > 0 {
		chunk := d
		if at, ok := m.queue.PeekTime(); ok {
			if at <= m.clock.Now() {
				e := m.queue.Pop()
				e.Fire()
				m.queue.Release(e)
				continue
			}
			if room := at - m.clock.Now(); room < chunk {
				chunk = room
			}
		}
		m.cpu.SetMode(md)
		m.cpu.Run(chunk)
		if owner != nil {
			m.accrue(owner, md, chunk)
		}
		d -= chunk
	}
}

// chargedAdvance is advance plus scheduler timeslice consumption for
// the task being served.
func (m *Machine) chargedAdvance(d sim.Cycles, md cpu.Mode, t *task) {
	m.advance(d, md, t)
	m.sched.Charge(t.p, d)
	if d >= t.quantumLeft {
		t.quantumLeft = 0
	} else {
		t.quantumLeft -= d
	}
}

// burnCompute services the current task's pending user-mode
// computation in one kernel visit: it alternates burning chunks
// (bounded by the next event and the remaining quantum) with firing
// due events, re-entering the outer step loop only when the CPU
// changes hands. Chunk boundaries, charges, and event firing order
// are identical to running one chunk per step; batching only removes
// the per-chunk trip through the step dispatcher. Each chunk still
// counts against MaxSteps (one iteration ≈ one pre-batching step),
// so the runaway guard keeps its calibration; on budget exhaustion
// the loop returns and the next driveStep reports the error. A
// compute that nothing can split never gets here: burnPosted burns
// it as this loop's single chunk.
func (m *Machine) burnCompute(t *task) {
	for {
		if m.cfg.MaxSteps > 0 && m.steps >= m.cfg.MaxSteps {
			return
		}
		m.steps++
		chunk := t.pendingUser
		if t.quantumLeft > 0 && chunk > t.quantumLeft {
			chunk = t.quantumLeft
		}
		if at, ok := m.queue.PeekTime(); ok {
			if room := at - m.clock.Now(); room < chunk {
				chunk = room
			}
		}
		if chunk > 0 {
			m.runUser(t, chunk)
			t.pendingUser -= chunk
		}

		if t.pendingUser == 0 && t.cur != nil && t.cur.kind == rqCompute {
			m.grantNow(t)
			return
		}
		if t.quantumLeft == 0 && m.current == t {
			if m.sched.Runnable() > 0 {
				m.preemptCurrent()
				return
			}
			t.quantumLeft = m.sched.Quantum(t.p)
		}

		// Fire whatever is due before the next chunk (the timer tick
		// bounding the chunk above, a preemption point, a wakeup).
		if !m.fireDue() {
			return
		}
		if m.pauseReq || m.needResched || m.current != t {
			// The step loop owns rescheduling and barrier decisions.
			return
		}
	}
}

// runUser burns d cycles of t's user-mode computation and charges
// them: the CPU's mode and clock, t's unbilled cycles, the scheduler
// and t's quantum.
func (m *Machine) runUser(t *task, d sim.Cycles) {
	m.cpu.SetMode(cpu.User)
	m.cpu.Run(d)
	m.accrue(t, cpu.User, d)
	m.sched.Charge(t.p, d)
	if d >= t.quantumLeft {
		t.quantumLeft = 0
	} else {
		t.quantumLeft -= d
	}
}

// servable reports whether a request that t has just posted, needing
// steps of the MaxSteps budget and d cycles, can be served where it
// was posted: t holds the CPU with no reschedule or barrier pending,
// the budget has the steps the general path would count, and no event
// falls due before the request's d cycles end. The general path would
// then fire nothing before or during it.
func (m *Machine) servable(t *task, steps uint64, d sim.Cycles) bool {
	if m.current != t || m.needResched || m.pauseReq ||
		m.cfg.MaxSteps > 0 && m.steps+steps > m.cfg.MaxSteps {
		return false
	}
	at, ok := m.queue.PeekTime()
	return !ok || at >= m.clock.Now()+d
}

// burnPosted burns a compute of d cycles that t has just posted, on
// the spot, when nothing could split it: it is servable with the three
// steps beginPosted and burnCompute would count, and the quantum
// covers it (0 means no cap). The general path would burn the compute
// as one chunk and grant it, so burnPosted makes the same charges,
// without setting t.cur. It reports whether it burned; the compute is
// then complete, and a Step task's post grants it.
func (m *Machine) burnPosted(t *task, d sim.Cycles) bool {
	if !m.servable(t, 3, d) || t.quantumLeft > 0 && t.quantumLeft < d {
		return false
	}
	m.steps += 3
	m.runUser(t, d)
	return true
}

// hitPosted serves an access to addr that t has just posted, on the
// spot, the way an MMU serves a TLB hit without entering the kernel:
// when it is servable with the one step beginPosted would count, no
// armed watchpoint of a tracer matches it, and mem.Space.Hit finds its
// page resident. The general path would make serviceAccess's hit
// charges, so hitPosted makes the same ones, one budget step and
// accessCost user cycles, without setting t.cur. It reports whether it
// served the access; when it did not, nothing has changed.
func (m *Machine) hitPosted(t *task, addr uint64, write bool) bool {
	if !m.servable(t, 1, accessCost) ||
		t.p.Tracer != nil && t.p.Debug.Matches(addr, write) ||
		!t.p.Space.Hit(addr, write) {
		return false
	}
	m.steps++
	m.runUser(t, accessCost)
	return true
}

// grantNow completes t's request. The guest resumes in the activation
// loop: inline if t posted it there, otherwise at the end of the
// driveStep that granted it.
func (m *Machine) grantNow(t *task) {
	t.cur = nil
	t.completed = false
	t.begun = false
	t.granted = true
}

// beginPosted services t's freshly posted request inline if t still
// owns the CPU after the engine's inter-request bookkeeping — the
// same preamble the step loop applies between any two guest actions:
// count the step against the runaway budget, fire due events, and
// honor a pending preemption. When t loses the CPU (preempted, or
// the budget is exhausted and the next driveStep must report it) the
// request stays posted for service at t's next dispatch. A compute is
// also burned here, as the next driveStep would burn it, so a guest
// whose compute completes on the CPU continues without leaving the
// activation. Computes that nothing can split and a Body guest's
// resident hits are served where they are posted (burnPosted,
// hitPosted); every other request comes here.
func (m *Machine) beginPosted(t *task) {
	t.begun = false
	if m.current != t {
		return
	}
	if m.cfg.MaxSteps > 0 && m.steps >= m.cfg.MaxSteps {
		return
	}
	m.steps++
	m.fireDue() // we are servicing a live task, so live > 0 holds
	if m.pauseReq {
		// A barrier fired between requests: leave the request posted;
		// it is serviced at the task's next dispatch after resume.
		return
	}
	if m.current != nil && m.needResched {
		m.preemptCurrent()
	}
	m.needResched = false
	if m.current != t {
		return
	}
	t.begun = true
	m.beginRequest(t, t.cur)
	// A compute only set pendingUser. Since the preamble above, no time
	// has passed and nothing was scheduled, so the next driveStep would
	// fire nothing, keep t on the CPU, and burn: do that step here.
	if t.pendingUser == 0 || m.cfg.MaxSteps > 0 && m.steps >= m.cfg.MaxSteps {
		return
	}
	m.steps++
	m.burnCompute(t)
}

// accrue adds d cycles that t ran in mode md to its unbilled cycles,
// putting t on the unbilled list at its first. The accountants hear of
// them at the next flushRun, as Linux's native vtime accounting accrues
// CPU time in the task and flushes it when it is read
// (kernel/sched/cputime.c). Every scheme's ledger is a sum, so a batched
// report bills exactly what one report per chunk would.
func (m *Machine) accrue(t *task, md cpu.Mode, d sim.Cycles) {
	if t.unbilledUser == 0 && t.unbilledSys == 0 {
		m.unbilled = append(m.unbilled, t)
	}
	if md == cpu.User {
		t.unbilledUser += d
	} else {
		t.unbilledSys += d
	}
}

// flushRun reports every unbilled task's cycles to the accountants, in
// at most one user and one system OnRun each, and empties the list. It
// runs wherever a ledger is read or folded: before a guest's usage read
// and a reap, when a thread group's final usage is kept, in Snapshot,
// and whenever drive returns, so a caller of Run or RunUntil reads
// exact sums.
func (m *Machine) flushRun() {
	for _, t := range m.unbilled {
		if t.unbilledUser > 0 {
			m.acct.OnRun(t.p, cpu.User, t.unbilledUser)
		}
		if t.unbilledSys > 0 {
			m.acct.OnRun(t.p, cpu.Kernel, t.unbilledSys)
		}
		t.unbilledUser, t.unbilledSys = 0, 0
	}
	clear(m.unbilled)
	m.unbilled = m.unbilled[:0]
}
