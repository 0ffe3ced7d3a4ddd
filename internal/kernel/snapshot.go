// Machine checkpointing: Snapshot freezes a quiescent machine's
// entire deterministic state into a MachineImage, Restore builds a
// fresh machine from one, and Fork is the two composed. An image is
// immutable — restoring from it never consumes it, so one warmed-up
// prefix can seed any number of divergent continuations (the campaign
// layer's shared-warmup fan-out).
//
// What an image holds: the virtual clock and CPU cycle ledgers, the
// event queue (every pending event's kind/tag/time and its exact
// insertion sequence number, since same-time events fire in sequence
// order), both splitmix64 streams (machine and fault), the memory
// subsystem with its LRU chain, the process table, scheduler
// runqueues, every metering ledger, NIC and disk device state, the
// kernel receive ring, and each task's kernel-side execution state
// plus — for flyweight guests — a cloned guest continuation obtained
// through the guest's ForkFunc.
//
// What cannot be checkpointed: a Body guest (SpawnConfig.Body) that
// has started — its state lives on a suspended coroutine stack the
// simulator cannot serialise — and flyweight guests spawned without a
// Fork function. Snapshot reports both as ErrNotSnapshottable, naming
// the task and its state. Events owned by a
// cluster ("pipe-service", "irq-work" scheduled by cluster wiring)
// snapshot fine but only restore through the cluster layer, which
// supplies the resolver for them.
package kernel

import (
	"errors"
	"fmt"
	"sort"

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

// ErrNotSnapshottable marks machine state that cannot be frozen: a
// started Body guest (its continuation is a suspended coroutine
// stack), a flyweight guest without a Fork function, a pending
// RunUntil barrier, or a machine that is shut down or mid-drive.
// Callers branch on it with errors.Is to fall back to re-running setup
// from scratch.
var ErrNotSnapshottable = errors.New("kernel: machine state is not snapshottable")

// MachineImage is a frozen machine: a quiescent deep copy of every
// piece of deterministic state, detached from any live machine.
// Images are immutable — Restore clones out of them — and opaque;
// build one with Machine.Snapshot.
type MachineImage struct {
	cfg   Config
	cpu   *cpu.CPU
	queue sim.QueueImage

	rngState      uint64
	hasFaultRNG   bool
	faultRNGState uint64
	faultsInject  uint64

	mem    *mem.Memory
	table  *proc.Table
	spaces map[proc.PID]*mem.Space
	sched  sched.Scheduler
	acct   *metering.Multi
	nic    *device.NIC
	disk   *device.Disk

	tickCycles sim.Cycles
	nextTickAt sim.Cycles

	tasks      []taskImage
	currentPID proc.PID // 0 = CPU idle
	lastRunPID proc.PID // 0 = none (or already reaped, which restores the same)
	live       int

	netWaiterPIDs []proc.PID
	rxFrames      []device.Frame
	rxDropped     uint64

	needResched bool
	steps       uint64

	stats         map[proc.PID]*Stats
	measurements  []Measurement
	measuredKeys  map[measureKey]bool
	groupCount    map[proc.PID]int
	finalUsage    map[string]map[proc.PID]metering.Usage
	finalChildren map[string]map[proc.PID]metering.Usage
}

// taskImage is one task's frozen kernel-side state. For flyweight
// guests stepFn/forkFn hold a cloned continuation private to the
// image; each Restore forks it again, so the image stays reusable.
type taskImage struct {
	pid     proc.PID
	started bool

	body   guest.Routine // never-started Body guests only
	stepFn guest.Step
	forkFn guest.ForkFunc

	hasCur    bool
	req       request
	begun     bool
	completed bool
	hasResume bool

	pendingUser sim.Cycles
	image       *guest.Program
	linkMap     *lib.LinkMap
	quantumLeft sim.Cycles

	waitingChild bool
	watchFired   bool
	stopPending  bool
	blockedAt    sim.Cycles
	traceePIDs   []proc.PID
	stopReported bool
	wakePending  bool
	billable     bool
}

// At reports the image's frozen virtual time — the barrier the
// machine was paused at when snapshotted.
func (img *MachineImage) At() sim.Cycles { return img.cpu.Clock().Now() }

// PendingEvents reports how many events the image carries.
func (img *MachineImage) PendingEvents() int { return len(img.queue.Events) }

// Tasks reports how many tasks (live or zombie) the image carries.
func (img *MachineImage) Tasks() int { return len(img.tasks) }

// Snapshot freezes the machine into an image. The machine must be
// quiescent: between Run/RunUntil calls (typically paused at a
// RunUntil barrier) and not shut down. The machine itself is
// untouched and can keep running afterwards. Returns an error
// wrapping ErrNotSnapshottable when the state cannot be frozen.
func (m *Machine) Snapshot() (*MachineImage, error) {
	switch {
	case m.closed:
		return nil, fmt.Errorf("%w: machine is shut down", ErrNotSnapshottable)
	case m.pauseReq:
		return nil, fmt.Errorf("%w: machine is mid-drive; snapshot between Run/RunUntil calls", ErrNotSnapshottable)
	}

	img := &MachineImage{
		cfg:          m.cfg,
		cpu:          m.cpu.Clone(),
		queue:        m.queue.Snapshot(),
		rngState:     m.rng.State(),
		faultsInject: m.faultsInjected,
		tickCycles:   m.tickCycles,
		nextTickAt:   m.nextTickAt,
		currentPID:   taskPID(m.current),
		live:         m.live,
		rxDropped:    m.rxDropped,
		needResched:  m.needResched,
		steps:        m.steps,
	}
	// The accountants listed in cfg were consumed at construction; the
	// image carries the cloned Multi instead, so drop the aliases.
	img.cfg.Accountants = nil
	if m.faultRNG != nil {
		img.hasFaultRNG = true
		img.faultRNGState = m.faultRNG.State()
	}
	for _, ei := range img.queue.Events {
		if ei.Kind == "barrier" {
			return nil, fmt.Errorf("%w: a RunUntil barrier event is pending", ErrNotSnapshottable)
		}
	}
	if lr := taskPID(m.lastRun); lr != 0 {
		if _, ok := m.tasks[lr]; ok {
			// A reaped lastRun restores as none: both can only compare
			// unequal to every future dispatch, so the context-switch
			// charges are identical.
			img.lastRunPID = lr
		}
	}

	var smap map[*mem.Space]*mem.Space
	img.mem, smap = m.mem.Clone()
	var pmap map[*proc.Proc]*proc.Proc
	img.table, pmap = m.table.Clone()
	img.spaces = make(map[proc.PID]*mem.Space)
	for _, p := range m.table.All() {
		if p.Space != nil {
			img.spaces[p.PID] = smap[p.Space]
		}
	}
	img.sched = m.sched.Clone(pmap)
	img.acct = m.acct.Clone().(*metering.Multi)
	img.nic = m.nic.Clone(nil, nil, nil, nil)
	img.disk = m.disk.Clone(nil, nil)

	pids := make([]proc.PID, 0, len(m.tasks))
	//simlint:unordered-ok key collection is sorted before use
	for pid := range m.tasks {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	img.tasks = make([]taskImage, 0, len(pids))
	for _, pid := range pids {
		ti, err := m.snapshotTask(m.tasks[pid])
		if err != nil {
			return nil, err
		}
		img.tasks = append(img.tasks, ti)
	}

	for _, t := range m.netWaiters {
		img.netWaiterPIDs = append(img.netWaiterPIDs, t.p.PID)
	}
	for i := 0; i < m.rxLen; i++ {
		img.rxFrames = append(img.rxFrames, m.rxBuf[(m.rxHead+i)%len(m.rxBuf)])
	}

	img.stats = make(map[proc.PID]*Stats, len(m.stats))
	//simlint:unordered-ok deep copy into a map keyed identically
	for pid, s := range m.stats {
		cp := *s
		img.stats[pid] = &cp
	}
	img.measurements = append([]Measurement(nil), m.measurements...)
	img.measuredKeys = make(map[measureKey]bool, len(m.measuredKeys))
	//simlint:unordered-ok set copy; membership only
	for k := range m.measuredKeys {
		img.measuredKeys[k] = true
	}
	img.groupCount = make(map[proc.PID]int, len(m.groupCount))
	//simlint:unordered-ok map-to-map copy
	for k, v := range m.groupCount {
		img.groupCount[k] = v
	}
	img.finalUsage = copyFinal(m.finalUsage)
	img.finalChildren = copyFinal(m.finalChildren)
	return img, nil
}

func taskPID(t *task) proc.PID {
	if t == nil {
		return 0
	}
	return t.p.PID
}

// describeTask identifies the task a refusal is about: its name, PID and
// state.
func describeTask(t *task) string {
	return fmt.Sprintf("%s (pid %d, %s)", t.p.Name, t.p.PID, t.p.State)
}

func copyFinal(src map[string]map[proc.PID]metering.Usage) map[string]map[proc.PID]metering.Usage {
	out := make(map[string]map[proc.PID]metering.Usage, len(src))
	copyFinalInto(out, src)
	return out
}

func copyFinalInto(dst, src map[string]map[proc.PID]metering.Usage) {
	//simlint:unordered-ok nested map-to-map copy
	for scheme, inner := range src {
		ci := make(map[proc.PID]metering.Usage, len(inner))
		//simlint:unordered-ok nested map-to-map copy
		for pid, u := range inner {
			ci[pid] = u
		}
		dst[scheme] = ci
	}
}

// snapshotTask freezes one task. Flyweight guests are cloned through
// their ForkFunc; started Body guests are refused. Every refusal names
// the task and its state.
func (m *Machine) snapshotTask(t *task) (taskImage, error) {
	ti := taskImage{
		pid:          t.p.PID,
		started:      t.started,
		begun:        t.begun,
		completed:    t.completed,
		hasResume:    t.resume != nil,
		pendingUser:  t.pendingUser,
		image:        t.image,
		linkMap:      t.linkMap,
		quantumLeft:  t.quantumLeft,
		waitingChild: t.waitingChild,
		watchFired:   t.watchFired,
		stopPending:  t.stopPending,
		blockedAt:    t.blockedAt,
		stopReported: t.stopReported,
		wakePending:  t.wakePending,
		billable:     t.billable,
	}
	if t.granted {
		return ti, fmt.Errorf("%w: task %s holds an undelivered grant", ErrNotSnapshottable, describeTask(t))
	}
	switch {
	case t.stepFn != nil:
		if t.forkFn == nil {
			return ti, fmt.Errorf("%w: task %s runs a flyweight guest spawned without a Fork function", ErrNotSnapshottable, describeTask(t))
		}
		fk, err := t.forkFn(t.stepFn)
		if err != nil {
			return ti, fmt.Errorf("snapshot task %s: fork guest: %w", describeTask(t), err)
		}
		if fk.Step == nil || fk.Fork == nil {
			return ti, fmt.Errorf("snapshot task %s: guest fork returned an incomplete clone", describeTask(t))
		}
		ti.stepFn, ti.forkFn = fk.Step, fk.Fork
	case t.co != nil:
		return ti, fmt.Errorf("%w: task %s runs a Body guest whose code is suspended on a coroutine stack (spawn with Step + Fork to checkpoint)", ErrNotSnapshottable, describeTask(t))
	case !t.started:
		ti.body = t.body
	}
	if t.cur != nil {
		ti.hasCur = true
		ti.req = *t.cur
	}
	if ti.hasResume && !ti.hasCur {
		return ti, fmt.Errorf("%w: task %s has a resume continuation with no in-flight request", ErrNotSnapshottable, describeTask(t))
	}
	for _, tr := range t.tracees {
		ti.traceePIDs = append(ti.traceePIDs, tr.p.PID)
	}
	return ti, nil
}

// RestoreResolver supplies Fire callbacks for event kinds the kernel
// does not own ("pipe-service", "irq-work"): the cluster layer passes
// one to RestoreWith so its wiring-held events survive a checkpoint.
type RestoreResolver func(kind string, tag uint64) (func(), bool)

// Restore builds a new machine from an image. The image is not
// consumed: restoring twice yields two independent machines that
// diverge only through post-restore inputs. Restore fails on events
// owned by a cluster — restore those machines through the cluster's
// own Restore, which supplies the resolver for its event kinds.
func Restore(img *MachineImage) (*Machine, error) {
	return img.restore(nil, nil)
}

// RestoreWith is Restore with an external resolver for event kinds
// the kernel does not own. The cluster layer uses it.
func RestoreWith(img *MachineImage, ext RestoreResolver) (*Machine, error) {
	return img.restore(ext, nil)
}

// Fork checkpoints this machine and restores the image into a new,
// fully independent machine frozen at the same instant. The original
// keeps running. Fails with ErrNotSnapshottable exactly when
// Snapshot does.
func (m *Machine) Fork() (*Machine, error) {
	img, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return Restore(img)
}

// restore builds a machine from the image, optionally into a
// recycled shell (whose allocated containers are reused) and with an
// external resolver for cluster-owned event kinds.
func (img *MachineImage) restore(ext RestoreResolver, shell *Machine) (*Machine, error) {
	m := shell
	if m == nil {
		m = &Machine{
			queue:         sim.NewEventQueue(),
			rng:           sim.NewRand(0),
			tasks:         make(map[proc.PID]*task),
			stats:         make(map[proc.PID]*Stats),
			measuredKeys:  make(map[measureKey]bool),
			groupCount:    make(map[proc.PID]int),
			finalUsage:    make(map[string]map[proc.PID]metering.Usage),
			finalChildren: make(map[string]map[proc.PID]metering.Usage),
		}
	} else {
		m.scrub()
	}
	m.cfg = img.cfg
	m.reg = img.cfg.Registry
	m.cpu = img.cpu.Clone()
	m.clock = m.cpu.Clock()
	m.rng.SetState(img.rngState)
	m.tickCycles = img.tickCycles
	m.nextTickAt = img.nextTickAt
	m.steps = img.steps
	m.needResched = img.needResched
	m.live = img.live
	m.rxDropped = img.rxDropped

	m.timerFire = m.timerTick
	m.preemptFire = func() { m.needResched = true }
	m.writebackFire = m.diskIRQ
	m.barrierFire = func() { m.pauseReq = true }

	var smap map[*mem.Space]*mem.Space
	m.mem, smap = img.mem.Clone()
	var pmap map[*proc.Proc]*proc.Proc
	m.table, pmap = img.table.Clone()
	for _, p := range m.table.All() {
		if sp := img.spaces[p.PID]; sp != nil {
			p.Space = smap[sp]
		}
	}
	m.sched = img.sched.Clone(pmap)
	m.acct = img.acct.Clone().(*metering.Multi)
	m.nic = img.nic.Clone(m.queue, m.clock, m.rng, m.nicRx)
	m.disk = img.disk.Clone(m.queue, m.clock)

	m.faults = nil
	m.faultRNG = nil
	m.faultsInjected = img.faultsInject
	m.initFaults(m.cfg.Faults)
	if m.faultRNG != nil && img.hasFaultRNG {
		m.faultRNG.SetState(img.faultRNGState)
	}

	//simlint:unordered-ok deep copy into a map keyed identically
	for pid, s := range img.stats {
		cp := *s
		m.stats[pid] = &cp
	}
	m.measurements = append(m.measurements, img.measurements...)
	//simlint:unordered-ok set copy; membership only
	for k := range img.measuredKeys {
		m.measuredKeys[k] = true
	}
	//simlint:unordered-ok map-to-map copy
	for k, v := range img.groupCount {
		m.groupCount[k] = v
	}
	copyFinalInto(m.finalUsage, img.finalUsage)
	copyFinalInto(m.finalChildren, img.finalChildren)

	for i := range img.tasks {
		if err := m.restoreTask(&img.tasks[i]); err != nil {
			return nil, err
		}
	}
	// Second pass: inter-task references.
	for i := range img.tasks {
		ti := &img.tasks[i]
		if len(ti.traceePIDs) == 0 {
			continue
		}
		t := m.tasks[ti.pid]
		for _, tp := range ti.traceePIDs {
			tr := m.tasks[tp]
			if tr == nil {
				return nil, fmt.Errorf("kernel: restore: task %d traces unknown pid %d", ti.pid, tp)
			}
			t.tracees = append(t.tracees, tr)
		}
	}
	if img.currentPID != 0 {
		m.current = m.tasks[img.currentPID]
		if m.current == nil {
			return nil, fmt.Errorf("kernel: restore: current task %d missing", img.currentPID)
		}
	}
	if img.lastRunPID != 0 {
		m.lastRun = m.tasks[img.lastRunPID]
	}
	for _, pid := range img.netWaiterPIDs {
		t := m.tasks[pid]
		if t == nil {
			return nil, fmt.Errorf("kernel: restore: net waiter %d missing", pid)
		}
		m.netWaiters = append(m.netWaiters, t)
	}
	if n := len(img.rxFrames); n > 0 {
		if len(m.rxBuf) != m.rxBufCap() {
			m.rxBuf = make([]device.Frame, m.rxBufCap())
		}
		copy(m.rxBuf, img.rxFrames)
		m.rxHead, m.rxLen = 0, n
	}

	var resErr error
	restored := m.queue.RestoreInto(img.queue, func(kind string, tag uint64) func() {
		fn, err := m.resolveFire(kind, tag, ext)
		if err != nil && resErr == nil {
			resErr = err
		}
		return fn
	})
	if resErr != nil {
		return nil, resErr
	}
	for i, e := range restored {
		ei := img.queue.Events[i]
		if ei.Kind == "nic-rx" && device.FloodTag(ei.Tag) {
			m.nic.AdoptPending(e)
		}
	}
	return m, nil
}

// resolveFire rebuilds one pending event's Fire callback from its
// (kind, tag) identity on the restored machine.
func (m *Machine) resolveFire(kind string, tag uint64, ext RestoreResolver) (func(), error) {
	nop := func() {}
	taskFire := func(pick func(*task) func()) (func(), error) {
		t := m.tasks[proc.PID(tag)]
		if t == nil {
			return nop, fmt.Errorf("kernel: restore: %q event for unknown pid %d", kind, tag)
		}
		return pick(t), nil
	}
	switch kind {
	case sim.KindTimer:
		return m.timerFire, nil
	case "preempt":
		return m.preemptFire, nil
	case "disk-write":
		return m.writebackFire, nil
	case "wake":
		return taskFire(func(t *task) func() { return t.wakeFire })
	case "sleep-wake":
		return taskFire(func(t *task) func() { return t.sleepFire })
	case "disk-read":
		return taskFire(func(t *task) func() { return t.swapInFire })
	case "nic-rx":
		if fn, ok := m.nic.RestoreFire(tag); ok {
			return fn, nil
		}
		return nop, fmt.Errorf("kernel: restore: unknown nic-rx tag %d", tag)
	default:
		if ext != nil {
			if fn, ok := ext(kind, tag); ok {
				return fn, nil
			}
		}
		return nop, fmt.Errorf("kernel: restore: event kind %q is not kernel-owned (cluster wiring events restore through cluster.Restore)", kind)
	}
}

// restoreTask rebuilds one task from its image, forking the image's
// frozen guest continuation so the image stays reusable.
func (m *Machine) restoreTask(ti *taskImage) error {
	p, ok := m.table.Get(ti.pid)
	if !ok {
		return fmt.Errorf("kernel: restore: task %d missing from process table", ti.pid)
	}
	t := m.newTask(p, ti.body)
	t.started = ti.started
	t.pendingUser = ti.pendingUser
	t.image = ti.image
	t.linkMap = ti.linkMap
	t.quantumLeft = ti.quantumLeft
	t.waitingChild = ti.waitingChild
	t.watchFired = ti.watchFired
	t.stopPending = ti.stopPending
	t.blockedAt = ti.blockedAt
	t.stopReported = ti.stopReported
	t.wakePending = ti.wakePending
	t.billable = ti.billable
	if ti.forkFn != nil {
		fk, err := ti.forkFn(ti.stepFn)
		if err != nil {
			return fmt.Errorf("kernel: restore task %v: fork guest: %w", p, err)
		}
		if fk.Step == nil || fk.Fork == nil {
			return fmt.Errorf("kernel: restore task %v: guest fork returned an incomplete clone", p)
		}
		t.stepFn = fk.Step
		t.forkFn = fk.Fork
	}
	if ti.hasCur {
		t.stepCtx.r = ti.req
		t.cur = &t.stepCtx.r
		t.begun = ti.begun
		t.completed = ti.completed
	}
	if ti.hasResume {
		// The only resume continuation the kernel parks is the
		// watchpoint-interrupted access retry (see debugTrap), which is
		// fully determined by the in-flight request.
		req := t.cur
		t.resume = func() { m.serviceAccess(t, req, true) }
	}
	return nil
}

// scrub resets a recycled machine shell for restore, keeping its
// allocated containers (maps, event queue free list, rng) so a
// Pool.Get allocates far less than a fresh build.
func (m *Machine) scrub() {
	clear(m.tasks)
	clear(m.stats)
	clear(m.measuredKeys)
	clear(m.groupCount)
	clear(m.finalUsage)
	clear(m.finalChildren)
	clear(m.rxBuf)
	m.queue.Reset()
	m.measurements = m.measurements[:0]
	m.netWaiters = m.netWaiters[:0]
	m.rxHead, m.rxLen, m.rxDropped = 0, 0, 0
	m.current, m.lastRun = nil, nil
	m.pauseReq, m.needResched, m.closed = false, false, false
	m.faultsInjected = 0
	m.live, m.steps = 0, 0
}

// Pool recycles finished machines' allocated scaffolding across
// Restore calls: Get restores an image into a recycled shell when
// one is available, Put retires a finished machine into the pool.
// Campaigns that restore one warmed-up image per variant use it to
// avoid re-paying machine construction per variant. Not safe for
// concurrent use; give each worker its own Pool.
type Pool struct {
	free []*Machine
}

// Get restores img, reusing a pooled machine shell when available.
func (p *Pool) Get(img *MachineImage) (*Machine, error) {
	var shell *Machine
	if n := len(p.free); n > 0 {
		shell = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	return img.restore(nil, shell)
}

// Put shuts m down and parks its shell for reuse by a later Get.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	m.Shutdown()
	p.free = append(p.free, m)
}
