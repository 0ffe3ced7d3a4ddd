// Package metering implements the CPU-time accounting schemes the
// paper analyses (Section III-A) and the fine-grained scheme it calls
// for (Section VI-B):
//
//   - JiffyAccountant is the commodity-OS scheme: at every timer
//     interrupt the whole tick is charged to whichever task happens
//     to be current, as user or system time depending on its mode.
//     Every attack in the paper inflates the numbers this scheme
//     reports.
//   - TSCAccountant charges the exact cycle count of every execution
//     slice using the time-stamp counter, eliminating the sampling
//     error the scheduling attack exploits — but it still bills
//     interrupt-handler time to the current task, as Linux does.
//   - ProcessAwareAccountant additionally attributes interrupt
//     handler time to a dedicated system account (after Zhang & West,
//     "Process-aware interrupt scheduling and accounting", RTSS'06,
//     the paper's reference [27]), closing the interrupt-flooding
//     channel.
//
// The kernel drives all registered accountants in parallel, so an
// experiment can report "billed by the vulnerable scheme" next to
// "ground truth" for the same run. Ticks and interrupts are reported
// as they happen. Execution is reported in batches, the way Linux's
// native vtime accounting accrues CPU time in the task and flushes it
// when it is read: the kernel sums each task's user and system cycles
// and reports them at flush points, before anything reads or folds a
// ledger. Every scheme's ledger is a sum, so every read sees exact
// totals; no scheme may count on one report per execution slice.
package metering

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/proc"
	"repro/internal/sim"
)

// SystemPID is the pseudo-account the process-aware scheme bills
// interrupt handling to.
const SystemPID proc.PID = 0

// Usage is the accounted CPU time of one task, in cycles. User and
// System mirror utime and stime.
type Usage struct {
	User   sim.Cycles
	System sim.Cycles
}

// Total returns user plus system cycles.
func (u Usage) Total() sim.Cycles { return u.User + u.System }

// Add returns the element-wise sum.
func (u Usage) Add(v Usage) Usage {
	return Usage{User: u.User + v.User, System: u.System + v.System}
}

// Sub returns the element-wise difference, clamping at zero so a
// comparison between two schemes cannot underflow.
func (u Usage) Sub(v Usage) Usage {
	d := Usage{}
	if u.User > v.User {
		d.User = u.User - v.User
	}
	if u.System > v.System {
		d.System = u.System - v.System
	}
	return d
}

// Seconds converts the usage to (user, system) virtual seconds.
func (u Usage) Seconds(freq sim.Hz) (user, system float64) {
	//simlint:float-ok presentation-only conversion; bills and ledgers stay in integer ticks
	return float64(u.User) / float64(freq), float64(u.System) / float64(freq)
}

// Accountant observes execution and answers usage queries. The kernel
// invokes the On* hooks; experiments read Usage/Snapshot.
type Accountant interface {
	// Name identifies the scheme in reports.
	Name() string
	// OnTick fires at each timer interrupt. cur is the task that was
	// current when the interrupt arrived (nil if the CPU was idle)
	// and mode is the privilege mode it was executing in.
	OnTick(cur *proc.Proc, mode cpu.Mode)
	// OnRun reports that task p executed for d cycles in mode m. One
	// call may sum many execution slices, reported at a flush point
	// (see the package comment) with cpu.User for user time and
	// cpu.Kernel for system time, so an accountant must only add it
	// up.
	OnRun(p *proc.Proc, m cpu.Mode, d sim.Cycles)
	// OnInterrupt reports d cycles of handler time for irq taken
	// while cur (possibly nil) was current.
	OnInterrupt(irq device.IRQ, cur *proc.Proc, d sim.Cycles)
	// Usage returns the accounted time for a billing entity. Threads
	// are rolled up into their thread group leader (TGID), matching
	// how a provider bills a job.
	Usage(pid proc.PID) Usage
	// OnReap folds a reaped child's own and accumulated-children
	// usage into the parent's children bucket (cutime/cstime, as
	// wait4 does) and drops the child's ledger entries, bounding
	// memory for fork-storm workloads.
	OnReap(parent, child proc.PID)
	// ChildrenUsage returns the accumulated usage of the entity's
	// reaped descendants (getrusage(RUSAGE_CHILDREN)).
	ChildrenUsage(pid proc.PID) Usage
	// Snapshot returns all per-entity usages, keyed by TGID.
	Snapshot() map[proc.PID]Usage
	// Clone returns an independent deep copy of the accountant and its
	// ledgers, for checkpoint restore.
	Clone() Accountant
}

// ledger accumulates usage keyed by TGID, plus a children bucket fed
// by reaping. Each scheme embeds one, which answers its Usage, OnReap,
// ChildrenUsage and Snapshot. Every timer tick, every interrupt and
// every flushed OnRun report lands here for every scheme, so the
// last-charged entry is cached: consecutive charges to the same thread
// group (the common case, since the current task absorbs runs of ticks
// and interrupts) skip the map lookup entirely.
type ledger struct {
	byTGID   map[proc.PID]*Usage
	children map[proc.PID]*Usage

	lastTGID proc.PID
	last     *Usage

	// free holds entries OnReap dropped, for the next new entry: a fork
	// storm's children then charge recycled entries. A dropped entry is
	// in neither map and is not last, so nothing else holds it.
	free []*Usage
}

func newLedger() ledger {
	return ledger{
		byTGID:   make(map[proc.PID]*Usage),
		children: make(map[proc.PID]*Usage),
	}
}

// OnReap implements Accountant: it folds child (own + its accumulated
// children) into parent's children bucket and forgets the child.
func (l *ledger) OnReap(parent, child proc.PID) {
	var folded Usage
	if u := l.byTGID[child]; u != nil {
		folded = folded.Add(*u)
		l.free = append(l.free, u)
	}
	if cu := l.children[child]; cu != nil {
		folded = folded.Add(*cu)
		l.free = append(l.free, cu)
	}
	delete(l.byTGID, child)
	delete(l.children, child)
	if l.lastTGID == child {
		l.last = nil
	}
	if folded == (Usage{}) {
		return
	}
	pc := l.children[parent]
	if pc == nil {
		pc = l.newEntry()
		l.children[parent] = pc
	}
	*pc = pc.Add(folded)
}

// newEntry returns a zero entry, recycled from free when it can.
func (l *ledger) newEntry() *Usage {
	n := len(l.free)
	if n == 0 {
		return &Usage{}
	}
	u := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	*u = Usage{}
	return u
}

// ChildrenUsage implements Accountant.
func (l *ledger) ChildrenUsage(pid proc.PID) Usage {
	if u := l.children[pid]; u != nil {
		return *u
	}
	return Usage{}
}

// entry returns pid's ledger entry. It inlines into every accountant's
// charge, so a charge to the last-charged group makes no call.
func (l *ledger) entry(pid proc.PID) *Usage {
	if l.last != nil && l.lastTGID == pid {
		return l.last
	}
	return l.lookup(pid)
}

// lookup is entry past the last-charged cache, kept out of line so
// that entry stays small enough to inline.
//
//go:noinline
func (l *ledger) lookup(pid proc.PID) *Usage {
	u := l.byTGID[pid]
	if u == nil {
		u = l.newEntry()
		l.byTGID[pid] = u
	}
	l.lastTGID, l.last = pid, u
	return u
}

// charge adds d cycles run in mode m: user time in cpu.User, system
// time in any other mode.
func (u *Usage) charge(m cpu.Mode, d sim.Cycles) {
	if m == cpu.User {
		u.User += d
	} else {
		u.System += d
	}
}

// Usage implements Accountant.
func (l *ledger) Usage(pid proc.PID) Usage {
	if u := l.byTGID[pid]; u != nil {
		return *u
	}
	return Usage{}
}

// clone deep-copies both ledgers. The last-charged cache is carried
// over (re-pointed at the cloned entry) so the clone's lookup
// behaviour matches the original's from the first charge; the clone
// starts with no free entries.
func (l *ledger) clone() ledger {
	c := ledger{
		byTGID:   make(map[proc.PID]*Usage, len(l.byTGID)),
		children: make(map[proc.PID]*Usage, len(l.children)),
	}
	//simlint:unordered-ok deep copy into a map keyed identically
	for pid, u := range l.byTGID {
		cu := *u
		c.byTGID[pid] = &cu
	}
	//simlint:unordered-ok deep copy into a map keyed identically
	for pid, u := range l.children {
		cu := *u
		c.children[pid] = &cu
	}
	if l.last != nil {
		c.lastTGID = l.lastTGID
		c.last = c.byTGID[l.lastTGID]
	}
	return c
}

// Snapshot implements Accountant.
func (l *ledger) Snapshot() map[proc.PID]Usage {
	out := make(map[proc.PID]Usage, len(l.byTGID))
	//simlint:unordered-ok map-to-map copy; callers order via SortedPIDs
	for pid, u := range l.byTGID {
		out[pid] = *u
	}
	return out
}

// JiffyAccountant is the vulnerable commodity scheme: one whole tick
// is charged to the current task at every timer interrupt.
type JiffyAccountant struct {
	tick sim.Cycles // cycles per jiffy
	ledger
}

// NewJiffy returns a jiffy accountant for the given tick length in
// cycles (freq / HZ).
func NewJiffy(tickCycles sim.Cycles) *JiffyAccountant {
	return &JiffyAccountant{tick: tickCycles, ledger: newLedger()}
}

// Name implements Accountant.
func (a *JiffyAccountant) Name() string { return "jiffy" }

// TickCycles returns the cycles-per-tick this accountant bills at.
func (a *JiffyAccountant) TickCycles() sim.Cycles { return a.tick }

// OnTick charges one full tick to the current task.
func (a *JiffyAccountant) OnTick(cur *proc.Proc, mode cpu.Mode) {
	if cur != nil {
		a.entry(cur.TGID).charge(mode, a.tick)
	}
}

// OnRun is ignored: the jiffy scheme only samples at ticks.
func (a *JiffyAccountant) OnRun(*proc.Proc, cpu.Mode, sim.Cycles) {}

// OnInterrupt is ignored: handler time is captured implicitly when a
// tick lands during or after the handler, exactly the imprecision the
// paper describes.
func (a *JiffyAccountant) OnInterrupt(device.IRQ, *proc.Proc, sim.Cycles) {}

// Clone implements Accountant.
func (a *JiffyAccountant) Clone() Accountant {
	return &JiffyAccountant{tick: a.tick, ledger: a.clone()}
}

// TSCAccountant charges exact slice lengths. Interrupt time is still
// billed to the current task (system time), like Linux but precise.
type TSCAccountant struct {
	ledger
}

// NewTSC returns a TSC accountant.
func NewTSC() *TSCAccountant { return &TSCAccountant{ledger: newLedger()} }

// Name implements Accountant.
func (a *TSCAccountant) Name() string { return "tsc" }

// OnTick is ignored: precision comes from OnRun.
func (a *TSCAccountant) OnTick(*proc.Proc, cpu.Mode) {}

// OnRun charges the exact slice.
func (a *TSCAccountant) OnRun(p *proc.Proc, m cpu.Mode, d sim.Cycles) {
	if p != nil {
		a.entry(p.TGID).charge(m, d)
	}
}

// OnInterrupt bills handler time to the interrupted task's system
// time, preserving Linux's attribution flaw at cycle precision.
func (a *TSCAccountant) OnInterrupt(_ device.IRQ, cur *proc.Proc, d sim.Cycles) {
	if cur != nil {
		a.entry(cur.TGID).System += d
	}
}

// Clone implements Accountant.
func (a *TSCAccountant) Clone() Accountant { return &TSCAccountant{ledger: a.clone()} }

// ProcessAwareAccountant is the paper's fine-grained scheme: exact
// slices plus interrupt time diverted to SystemPID.
type ProcessAwareAccountant struct {
	ledger
}

// NewProcessAware returns a process-aware accountant.
func NewProcessAware() *ProcessAwareAccountant {
	return &ProcessAwareAccountant{ledger: newLedger()}
}

// Name implements Accountant.
func (a *ProcessAwareAccountant) Name() string { return "process-aware" }

// OnTick is ignored: precision comes from OnRun.
func (a *ProcessAwareAccountant) OnTick(*proc.Proc, cpu.Mode) {}

// OnRun charges the exact slice.
func (a *ProcessAwareAccountant) OnRun(p *proc.Proc, m cpu.Mode, d sim.Cycles) {
	if p != nil {
		a.entry(p.TGID).charge(m, d)
	}
}

// OnInterrupt bills handler time to the system account, not the
// victim of the interrupt.
func (a *ProcessAwareAccountant) OnInterrupt(_ device.IRQ, _ *proc.Proc, d sim.Cycles) {
	a.entry(SystemPID).System += d
}

// Clone implements Accountant.
func (a *ProcessAwareAccountant) Clone() Accountant {
	return &ProcessAwareAccountant{ledger: a.clone()}
}

// Multi fans hooks out to several accountants so one run yields every
// scheme's view of the same execution. The charge hooks iterate the
// accountant slice directly; name resolution is an index map built at
// registration, so no per-charge string work happens anywhere.
type Multi struct {
	accts   []Accountant
	indexOf map[string]int
}

// NewMulti returns a fan-out over the given accountants.
func NewMulti(accts ...Accountant) *Multi {
	m := &Multi{accts: accts, indexOf: make(map[string]int, len(accts))}
	for i, a := range accts {
		if _, dup := m.indexOf[a.Name()]; !dup {
			m.indexOf[a.Name()] = i
		}
	}
	return m
}

// Accountants returns the registered schemes in registration order.
func (m *Multi) Accountants() []Accountant {
	out := make([]Accountant, len(m.accts))
	copy(out, m.accts)
	return out
}

// ByName returns the first accountant with the given name.
func (m *Multi) ByName(name string) (Accountant, bool) {
	i, ok := m.indexOf[name]
	if !ok {
		return nil, false
	}
	return m.accts[i], true
}

// Name implements Accountant.
func (m *Multi) Name() string { return "multi" }

// OnTick implements Accountant.
func (m *Multi) OnTick(cur *proc.Proc, mode cpu.Mode) {
	for _, a := range m.accts {
		a.OnTick(cur, mode)
	}
}

// OnRun implements Accountant.
func (m *Multi) OnRun(p *proc.Proc, mode cpu.Mode, d sim.Cycles) {
	for _, a := range m.accts {
		a.OnRun(p, mode, d)
	}
}

// OnInterrupt implements Accountant.
func (m *Multi) OnInterrupt(irq device.IRQ, cur *proc.Proc, d sim.Cycles) {
	for _, a := range m.accts {
		a.OnInterrupt(irq, cur, d)
	}
}

// Usage implements Accountant using the first registered scheme.
func (m *Multi) Usage(pid proc.PID) Usage {
	if len(m.accts) == 0 {
		return Usage{}
	}
	return m.accts[0].Usage(pid)
}

// OnReap implements Accountant.
func (m *Multi) OnReap(parent, child proc.PID) {
	for _, a := range m.accts {
		a.OnReap(parent, child)
	}
}

// ChildrenUsage implements Accountant using the first registered
// scheme.
func (m *Multi) ChildrenUsage(pid proc.PID) Usage {
	if len(m.accts) == 0 {
		return Usage{}
	}
	return m.accts[0].ChildrenUsage(pid)
}

// Snapshot implements Accountant using the first registered scheme.
func (m *Multi) Snapshot() map[proc.PID]Usage {
	if len(m.accts) == 0 {
		return nil
	}
	return m.accts[0].Snapshot()
}

// Clone implements Accountant: every registered scheme is cloned in
// registration order. The result is a *Multi, so callers restoring a
// machine can assert it back.
func (m *Multi) Clone() Accountant {
	accts := make([]Accountant, len(m.accts))
	for i, a := range m.accts {
		accts[i] = a.Clone()
	}
	return NewMulti(accts...)
}

// Interface compliance checks.
var (
	_ Accountant = (*JiffyAccountant)(nil)
	_ Accountant = (*TSCAccountant)(nil)
	_ Accountant = (*ProcessAwareAccountant)(nil)
	_ Accountant = (*Multi)(nil)
)

// SortedPIDs returns the keys of a snapshot in ascending order, for
// deterministic report rendering.
func SortedPIDs(snap map[proc.PID]Usage) []proc.PID {
	pids := make([]proc.PID, 0, len(snap))
	//simlint:unordered-ok key harvest for the sort below; output is totally ordered
	for pid := range snap {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}
