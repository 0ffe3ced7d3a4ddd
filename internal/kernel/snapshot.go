// Machine checkpointing: Snapshot freezes a quiescent machine's
// entire deterministic state into a MachineImage, Restore builds a
// fresh machine from one, and Fork is the two composed. An image is
// immutable — restoring from it never consumes it, so one warmed-up
// prefix can seed any number of divergent continuations (the campaign
// layer's shared-warmup fan-out).
//
// What an image holds: a frozen Machine that never runs. One deep
// copy (Machine.clone) makes it from the live machine and makes every
// restore from it, so an image carries exactly what a machine holds:
// the virtual clock and CPU cycle ledgers, the event queue (every
// pending event's kind/tag/time and its exact insertion sequence
// number, since same-time events fire in sequence order), both
// splitmix64 streams (machine and fault), the memory subsystem with
// its LRU chain, the process table, scheduler runqueues, every
// metering ledger, NIC and disk device state (the disk's writeback
// FIFO included, whose head is the one queued event among its
// writes), the kernel receive ring,
// and each task's kernel-side execution state plus — for flyweight
// guests — a cloned guest continuation obtained through the guest's
// ForkFunc. Each copy rebuilds every pending event's callback from the
// event's (kind, tag).
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

	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
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
// piece of deterministic state, detached from any live machine. The
// frozen machine never runs — Restore copies out of it — so images
// are immutable, and opaque; build one with Machine.Snapshot.
type MachineImage struct {
	m *Machine
}

// At reports the image's frozen virtual time — the barrier the
// machine was paused at when snapshotted.
func (img *MachineImage) At() sim.Cycles { return img.m.clock.Now() }

// PendingEvents reports how many events the image carries, counting
// each writeback the disk's FIFO holds behind its queued head.
func (img *MachineImage) PendingEvents() int {
	n := img.m.queue.Len()
	if w := img.m.disk.PendingWrites(); w > 0 {
		n += w - 1
	}
	return n
}

// Tasks reports how many tasks (live or zombie) the image carries.
func (img *MachineImage) Tasks() int { return len(img.m.tasks) }

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
	m.flushRun()
	frozen, err := m.clone(nil, frozenFire)
	if err != nil {
		return nil, err
	}
	return &MachineImage{m: frozen}, nil
}

// frozenFire resolves the cluster-owned event kinds on a frozen
// machine to a callback that must never run: the frozen machine is
// only copied, and each restore re-resolves its events.
func frozenFire(kind string, _ uint64) (func(), bool) {
	switch kind {
	case "pipe-service", "irq-work":
		return func() { panic("kernel: a frozen machine image fired a " + kind + " event") }, true
	}
	return nil, false
}

// describeTask identifies the task a refusal is about: its name, PID and
// state.
func describeTask(t *task) string {
	return fmt.Sprintf("%s (pid %d, %s)", t.p.Name, t.p.PID, t.p.State)
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
	return img.m.clone(nil, nil)
}

// RestoreWith is Restore with an external resolver for event kinds
// the kernel does not own. The cluster layer uses it.
func RestoreWith(img *MachineImage, ext RestoreResolver) (*Machine, error) {
	return img.m.clone(nil, ext)
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

// clone deep-copies the quiescent machine m into shell — a finished
// machine whose allocated containers are reused, or nil for a new one
// — and returns the copy. Snapshot clones a live machine into a frozen
// one, and every restore clones a frozen machine into a live one. clone
// only reads m, so several goroutines may restore one image at once.
// ext resolves pending events of the kinds the kernel does not own.
// The copy starts with no unbilled cycles: Snapshot flushes m's first,
// and a frozen machine never runs.
func (m *Machine) clone(shell *Machine, ext RestoreResolver) (*Machine, error) {
	c := shell
	if c == nil {
		c = newShell(0)
	} else {
		clear(c.tasks)
		clear(c.stats)
		clear(c.measuredKeys)
		clear(c.groupCount)
		clear(c.finalUsage)
		clear(c.finalChildren)
		clear(c.rxBuf)
		c.queue.Reset()
		c.measurements = c.measurements[:0]
		c.netWaiters = c.netWaiters[:0]
		c.pauseReq, c.closed = false, false
	}
	// The accountants listed in cfg were consumed at construction; the
	// copy carries cloned ones instead, so drop the aliases.
	c.cfg, c.reg = m.cfg, m.reg
	c.cfg.Accountants = nil
	c.cpu = m.cpu.Clone()
	c.clock = c.cpu.Clock()
	c.rng.SetState(m.rng.State())
	c.tickCycles, c.nextTickAt, c.sysCost = m.tickCycles, m.nextTickAt, m.sysCost
	c.live, c.steps, c.needResched = m.live, m.steps, m.needResched
	// The armed fault table is never written after New, so copies share it.
	c.faults, c.faultRNG, c.faultsInjected = m.faults, nil, m.faultsInjected
	if m.faultRNG != nil {
		c.faultRNG = m.faultRNG.Clone()
	}

	var smap map[*mem.Space]*mem.Space
	c.mem, smap = m.mem.Clone()
	var pmap map[*proc.Proc]*proc.Proc
	c.table, pmap = m.table.Clone()
	c.sched = m.sched.Clone(pmap)
	c.acct = m.acct.Clone().(*metering.Multi)
	c.nic = m.nic.Clone(c.queue, c.clock, c.rng, c.nicRx)
	c.disk = m.disk.Clone(c.queue, c.clock, c.writebackFire)

	//simlint:unordered-ok deep copy into a map keyed identically
	for pid, s := range m.stats {
		cp := *s
		c.stats[pid] = &cp
	}
	c.measurements = append(c.measurements, m.measurements...)
	//simlint:unordered-ok set copy; membership only
	for k := range m.measuredKeys {
		c.measuredKeys[k] = true
	}
	//simlint:unordered-ok map-to-map copy
	for k, v := range m.groupCount {
		c.groupCount[k] = v
	}
	copyFinalInto(c.finalUsage, m.finalUsage)
	copyFinalInto(c.finalChildren, m.finalChildren)

	// Tasks in PID order, so a refusal names the lowest refused PID.
	for _, p := range m.table.All() {
		cp := pmap[p]
		cp.Space = smap[p.Space]
		if err := c.cloneTask(m.tasks[p.PID], cp); err != nil {
			return nil, err
		}
	}
	//simlint:unordered-ok each task's tracee list is rebuilt independently of visit order
	for pid, t := range m.tasks {
		ct := c.tasks[pid]
		for _, tr := range t.tracees {
			ct.tracees = append(ct.tracees, c.twin(tr))
		}
	}
	// A reaped lastRun copies as none: both can only compare unequal to
	// every future dispatch, so the context-switch charges are identical.
	c.current, c.lastRun = c.twin(m.current), c.twin(m.lastRun)
	for _, t := range m.netWaiters {
		c.netWaiters = append(c.netWaiters, c.twin(t))
	}
	c.rxHead, c.rxLen, c.rxDropped = 0, m.rxLen, m.rxDropped
	if m.rxLen > 0 {
		if len(c.rxBuf) != c.rxBufCap() {
			c.rxBuf = make([]device.Frame, c.rxBufCap())
		}
		for i := range m.rxLen {
			c.rxBuf[i] = m.rxBuf[(m.rxHead+i)%len(m.rxBuf)]
		}
	}

	qi := m.queue.Snapshot()
	var resErr error
	events := c.queue.RestoreInto(qi, func(kind string, tag uint64) func() {
		fn, err := c.resolveFire(kind, tag, ext)
		if err != nil && resErr == nil {
			resErr = err
		}
		return fn
	})
	if resErr != nil {
		return nil, resErr
	}
	for i, e := range events {
		if ei := qi.Events[i]; ei.Kind == "nic-rx" && device.FloodTag(ei.Tag) {
			c.nic.AdoptPending(e)
		}
	}
	return c, nil
}

// cloneTask copies t, a task of the machine c is cloned from, onto p,
// the copy of t's process. A flyweight guest is forked through its
// ForkFunc, so the source keeps its own continuation. Started Body
// guests are refused; every refusal names the task and its state.
func (c *Machine) cloneTask(t *task, p *proc.Proc) error {
	switch {
	case t.granted:
		return fmt.Errorf("%w: task %s holds an undelivered grant", ErrNotSnapshottable, describeTask(t))
	case t.stepFn != nil && t.forkFn == nil:
		return fmt.Errorf("%w: task %s runs a flyweight guest spawned without a Fork function", ErrNotSnapshottable, describeTask(t))
	case t.co != nil:
		return fmt.Errorf("%w: task %s runs a Body guest whose code is suspended on a coroutine stack (spawn with Step + Fork to checkpoint)", ErrNotSnapshottable, describeTask(t))
	}
	ct := c.newTask(p, t.body)
	ct.taskState = t.taskState
	ct.stepCtx.r = t.stepCtx.r
	if t.cur != nil {
		ct.cur = &ct.stepCtx.r
	}
	// An exited Step task keeps its forkFn, so fork only a running guest.
	if t.stepFn == nil {
		return nil
	}
	fk, err := t.forkFn(t.stepFn)
	if err != nil {
		return fmt.Errorf("kernel: copy task %s: fork guest: %w", describeTask(t), err)
	}
	if fk.Step == nil || fk.Fork == nil {
		return fmt.Errorf("kernel: copy task %s: guest fork returned an incomplete clone", describeTask(t))
	}
	ct.stepFn, ct.forkFn = fk.Step, fk.Fork
	return nil
}

// twin returns c's copy of t, a task of the machine c is cloned from:
// nil for nil and for a reaped task, which has no copy.
func (c *Machine) twin(t *task) *task {
	if t == nil {
		return nil
	}
	return c.tasks[t.p.PID]
}

// resolveFire rebuilds one pending event's Fire callback from its
// (kind, tag) identity on the copied machine.
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
		if fn, ok := m.disk.RestoreFire(tag); ok {
			return fn, nil
		}
		return nop, fmt.Errorf("kernel: restore: unknown disk-write tag %d", tag)
	case "barrier":
		return nop, fmt.Errorf("%w: a RunUntil barrier event is pending", ErrNotSnapshottable)
	case "wake":
		return taskFire((*task).wakeFn)
	case "sleep-wake":
		return taskFire((*task).sleepFn)
	case "disk-read":
		return taskFire((*task).swapInFn)
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
	return img.m.clone(shell, nil)
}

// Put shuts m down and parks its shell for reuse by a later Get.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	m.Shutdown()
	p.free = append(p.free, m)
}
