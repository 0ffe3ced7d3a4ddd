// Package sched implements the simulated schedulers. The paper's
// testbed ran Linux 2.6.29; its scheduling attack (Section IV-B1)
// depends only on two properties every general-purpose scheduler has:
// a task's nice value controls how often and how long it runs, and a
// context switch can happen in the middle of a jiffy. Two policies
// are provided so the ablation benches can compare them:
//
//   - O1: an O(1)-style priority scheduler with active/expired arrays
//     and nice-scaled timeslices (the 2.6.8–2.6.22 design).
//   - CFS: a virtual-runtime fair scheduler with the kernel's
//     prio_to_weight table (2.6.23+), for the paper's remark that CFS
//     changes the time composition but is still tick-sampled.
package sched

import (
	"container/heap"
	"fmt"

	"repro/internal/proc"
	"repro/internal/sim"
)

// Scheduler is the policy interface the kernel drives.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Enqueue makes p runnable.
	Enqueue(p *proc.Proc)
	// Remove takes p out of the runqueue (blocked, stopped, exited).
	// Removing a task that is not queued is a no-op.
	Remove(p *proc.Proc)
	// PickNext removes and returns the next task to run, or nil when
	// no task is runnable.
	PickNext() *proc.Proc
	// Quantum returns the timeslice to grant p for this dispatch.
	Quantum(p *proc.Proc) sim.Cycles
	// Charge records that p ran for d cycles (updates vruntime or
	// remaining-timeslice bookkeeping).
	Charge(p *proc.Proc, d sim.Cycles)
	// ShouldPreempt reports whether a newly woken task should
	// preempt the current one immediately.
	ShouldPreempt(cur, woken *proc.Proc) bool
	// Runnable reports the number of queued tasks.
	Runnable() int
	// Clone returns an independent copy of the scheduler for
	// checkpoint restore. pmap maps each original task to its clone;
	// Clone re-points queue entries through it and rebuilds the
	// per-task SchedData slots on the cloned tasks (proc.Table.Clone
	// leaves them nil).
	Clone(pmap map[*proc.Proc]*proc.Proc) Scheduler
}

// niceIndex maps a nice value to a 0..39 array index.
func niceIndex(nice int) int { return nice - proc.MinNice }

// --- O(1)-style scheduler ---

// o1Data is the per-task slot the O(1) policy keeps in SchedData.
type o1Data struct {
	queued    bool
	remaining sim.Cycles // unused timeslice
	exhausted bool       // slice ran out while running (→ expired array)
}

// prioArray is one of the O(1) scheduler's two priority arrays. The
// bucket storage grows lazily to the highest nice index ever queued
// instead of inlining all 40 slice headers, so an idle machine's
// scheduler is a few words rather than ~2 KB — which dominates both
// resident memory and checkpoint image size when thousands of
// machines are resident (see BenchmarkResidentMachines).
type prioArray struct {
	buckets [][]*proc.Proc
}

func (a *prioArray) push(idx int, p *proc.Proc) {
	for len(a.buckets) <= idx {
		a.buckets = append(a.buckets, nil)
	}
	a.buckets[idx] = append(a.buckets[idx], p)
}

// remove deletes p from bucket idx, reporting whether it was present.
func (a *prioArray) remove(idx int, p *proc.Proc) bool {
	if idx >= len(a.buckets) {
		return false
	}
	for i, t := range a.buckets[idx] {
		if t == p {
			a.cut(idx, i)
			return true
		}
	}
	return false
}

// cut deletes entry i of bucket idx by shifting the rest down in
// place, so the bucket keeps its capacity and the next push does not
// reallocate. FIFO order is preserved.
func (a *prioArray) cut(idx, i int) {
	q := a.buckets[idx]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	a.buckets[idx] = q[:len(q)-1]
}

// clone deep-copies the array, re-pointing entries through pmap.
// Bucket order is preserved exactly: it is the FIFO order within a
// priority level.
func (a *prioArray) clone(pmap map[*proc.Proc]*proc.Proc) prioArray {
	if len(a.buckets) == 0 {
		return prioArray{}
	}
	c := prioArray{buckets: make([][]*proc.Proc, len(a.buckets))}
	for i, q := range a.buckets {
		if len(q) == 0 {
			continue
		}
		cq := make([]*proc.Proc, len(q))
		for j, p := range q {
			cq[j] = pmap[p]
		}
		c.buckets[i] = cq
	}
	return c
}

// O1 is the active/expired priority-array scheduler.
type O1 struct {
	cyclesPerMs sim.Cycles
	active      prioArray
	expired     prioArray
	n           int
}

// NewO1 returns an O(1)-style scheduler. cyclesPerMs converts the
// millisecond-denominated timeslice formula into cycles.
func NewO1(cyclesPerMs sim.Cycles) *O1 {
	if cyclesPerMs == 0 {
		cyclesPerMs = 1
	}
	return &O1{cyclesPerMs: cyclesPerMs}
}

// Name implements Scheduler.
func (s *O1) Name() string { return "o1" }

func (s *O1) data(p *proc.Proc) *o1Data {
	d, ok := p.SchedData.(*o1Data)
	if !ok {
		d = &o1Data{}
		p.SchedData = d
	}
	return d
}

// Timeslice computes the Linux O(1) nice-to-timeslice mapping:
// 5 ms at nice 19, 100 ms at nice 0, 800 ms at nice -20.
func (s *O1) Timeslice(nice int) sim.Cycles {
	// Static priority: 120 + nice. Below 120 gets the 4x boosted
	// scale, mirroring kernel SCALE_PRIO.
	prio := 120 + nice
	base := sim.Cycles(100) // DEF_TIMESLICE in ms
	if prio < 120 {
		base *= 4
	}
	ts := base * sim.Cycles(140-prio) / 20
	if ts < 5 {
		ts = 5
	}
	return ts * s.cyclesPerMs
}

// Enqueue implements Scheduler. A task with leftover timeslice goes
// to the active array (it was preempted, woke, or is freshly forked —
// the O(1) kernel places new children in active with a share of the
// parent's slice); only a task that exhausted its slice running is
// refilled and parked in expired until the epoch swap.
func (s *O1) Enqueue(p *proc.Proc) {
	d := s.data(p)
	if d.queued {
		return
	}
	d.queued = true
	idx := niceIndex(p.Nice())
	toExpired := false
	if d.remaining == 0 {
		d.remaining = s.Timeslice(p.Nice())
		toExpired = d.exhausted
		d.exhausted = false
	}
	if toExpired {
		s.expired.push(idx, p)
	} else {
		s.active.push(idx, p)
	}
	s.n++
}

// Remove implements Scheduler.
func (s *O1) Remove(p *proc.Proc) {
	d := s.data(p)
	if !d.queued {
		return
	}
	idx := niceIndex(p.Nice())
	if !s.active.remove(idx, p) && !s.expired.remove(idx, p) {
		panic(fmt.Sprintf("sched: O1.Remove: pid %d is flagged queued but absent from both arrays at nice index %d", p.PID, idx))
	}
	d.queued = false
	s.n--
}

// PickNext implements Scheduler: highest priority first; when the
// active arrays drain, swap with expired (a scheduling epoch).
func (s *O1) PickNext() *proc.Proc {
	for round := 0; round < 2; round++ {
		for idx := 0; idx < len(s.active.buckets); idx++ {
			q := s.active.buckets[idx]
			if len(q) == 0 {
				continue
			}
			p := q[0]
			s.active.cut(idx, 0)
			s.data(p).queued = false
			s.n--
			return p
		}
		// Epoch boundary: expired becomes active.
		s.active, s.expired = s.expired, s.active
	}
	return nil
}

// Quantum implements Scheduler: the task's remaining slice.
func (s *O1) Quantum(p *proc.Proc) sim.Cycles {
	d := s.data(p)
	if d.remaining == 0 {
		d.remaining = s.Timeslice(p.Nice())
	}
	return d.remaining
}

// Charge implements Scheduler.
func (s *O1) Charge(p *proc.Proc, d sim.Cycles) {
	sd := s.data(p)
	if d >= sd.remaining {
		if sd.remaining > 0 {
			sd.exhausted = true
		}
		sd.remaining = 0
	} else {
		sd.remaining -= d
	}
}

// ShouldPreempt implements Scheduler: strictly higher priority
// (lower nice) wins the CPU immediately, as in the O(1) kernel.
func (s *O1) ShouldPreempt(cur, woken *proc.Proc) bool {
	if cur == nil {
		return true
	}
	return woken.Nice() < cur.Nice()
}

// Runnable implements Scheduler.
func (s *O1) Runnable() int { return s.n }

// Clone implements Scheduler. Every cloned task whose original holds
// an o1Data slot gets a fresh copy (remaining timeslice and the
// exhausted flag persist across blocks, so non-queued tasks carry
// state too); both priority arrays are rebuilt in identical order.
func (s *O1) Clone(pmap map[*proc.Proc]*proc.Proc) Scheduler {
	c := &O1{cyclesPerMs: s.cyclesPerMs, n: s.n}
	//simlint:unordered-ok each task's SchedData slot is rebuilt independently; no cross-task state depends on visit order
	for p, cp := range pmap {
		if d, ok := p.SchedData.(*o1Data); ok {
			dd := *d
			cp.SchedData = &dd
		}
	}
	c.active = s.active.clone(pmap)
	c.expired = s.expired.clone(pmap)
	return c
}

// --- CFS-like scheduler ---

// prioToWeight is the kernel's nice-to-weight table (kernel/sched.c):
// each nice step changes CPU share by ~10%.
var prioToWeight = [40]uint64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// WeightOf returns the CFS load weight for a nice value.
func WeightOf(nice int) uint64 { return prioToWeight[niceIndex(nice)] }

const nice0Weight = 1024

// cfsData is the per-task slot the CFS policy keeps in SchedData.
type cfsData struct {
	vruntime uint64 // weighted nanCycles; see Charge
	queued   bool
	seq      uint64
	index    int
}

// CFS is the virtual-runtime fair scheduler.
type CFS struct {
	cyclesPerMs sim.Cycles
	h           cfsHeap
	seq         uint64
	minVruntime uint64
}

// NewCFS returns a CFS-like scheduler.
func NewCFS(cyclesPerMs sim.Cycles) *CFS {
	if cyclesPerMs == 0 {
		cyclesPerMs = 1
	}
	return &CFS{cyclesPerMs: cyclesPerMs}
}

// Name implements Scheduler.
func (s *CFS) Name() string { return "cfs" }

func (s *CFS) data(p *proc.Proc) *cfsData {
	d, ok := p.SchedData.(*cfsData)
	if !ok {
		d = &cfsData{index: -1}
		p.SchedData = d
	}
	return d
}

// Enqueue implements Scheduler. Arrivals are placed just behind the
// current minimum vruntime (a bounded sleeper credit of half the
// scheduling latency, as CFS's place_entity does), so a task that
// blocked briefly preempts the running task on wake-up instead of
// losing its fairness claim — the behaviour the scheduling attack's
// fork/wait cycle relies on under the 2.6.23+ kernels.
func (s *CFS) Enqueue(p *proc.Proc) {
	d := s.data(p)
	if d.queued {
		return
	}
	credit := uint64(10 * s.cyclesPerMs) // sched_latency/2
	target := s.minVruntime
	if target > credit {
		target -= credit
	} else {
		target = 0
	}
	if d.vruntime < target {
		d.vruntime = target
	}
	d.queued = true
	s.seq++
	d.seq = s.seq
	heap.Push(&s.h, cfsEntry{p: p, d: d})
}

// Remove implements Scheduler.
func (s *CFS) Remove(p *proc.Proc) {
	d := s.data(p)
	if !d.queued || d.index < 0 {
		d.queued = false
		return
	}
	heap.Remove(&s.h, d.index)
	d.queued = false
	d.index = -1
}

// PickNext implements Scheduler: smallest vruntime first.
func (s *CFS) PickNext() *proc.Proc {
	if len(s.h) == 0 {
		return nil
	}
	e := heap.Pop(&s.h).(cfsEntry)
	e.d.queued = false
	e.d.index = -1
	if e.d.vruntime > s.minVruntime {
		s.minVruntime = e.d.vruntime
	}
	return e.p
}

// Quantum implements Scheduler: sched_latency (20 ms) divided among
// runnable tasks, floored at a 1 ms granularity.
func (s *CFS) Quantum(p *proc.Proc) sim.Cycles {
	latency := 20 * s.cyclesPerMs
	n := sim.Cycles(len(s.h) + 1) // queued plus the task being dispatched
	q := latency / n
	if min := s.cyclesPerMs; q < min {
		q = min
	}
	return q
}

// Charge implements Scheduler: vruntime advances by actual cycles
// scaled inversely with weight.
func (s *CFS) Charge(p *proc.Proc, d sim.Cycles) {
	sd := s.data(p)
	sd.vruntime += uint64(d) * nice0Weight / WeightOf(p.Nice())
}

// ShouldPreempt implements Scheduler: a woken task preempts when its
// vruntime is behind the current task's (simplified wakeup-granularity
// check).
func (s *CFS) ShouldPreempt(cur, woken *proc.Proc) bool {
	if cur == nil {
		return true
	}
	return s.data(woken).vruntime+uint64(s.cyclesPerMs) < s.data(cur).vruntime
}

// Runnable implements Scheduler.
func (s *CFS) Runnable() int { return len(s.h) }

// Clone implements Scheduler. The heap slice is copied element-for-
// element, so the clone's internal layout — and therefore every
// future sift decision — matches the original exactly. cfsData.index
// values are preserved by the struct copy.
func (s *CFS) Clone(pmap map[*proc.Proc]*proc.Proc) Scheduler {
	c := &CFS{cyclesPerMs: s.cyclesPerMs, seq: s.seq, minVruntime: s.minVruntime}
	//simlint:unordered-ok each task's SchedData slot is rebuilt independently; no cross-task state depends on visit order
	for p, cp := range pmap {
		if d, ok := p.SchedData.(*cfsData); ok {
			dd := *d
			cp.SchedData = &dd
		}
	}
	if len(s.h) > 0 {
		c.h = make(cfsHeap, len(s.h))
		for i, e := range s.h {
			np := pmap[e.p]
			c.h[i] = cfsEntry{p: np, d: np.SchedData.(*cfsData)}
		}
	}
	return c
}

type cfsEntry struct {
	p *proc.Proc
	d *cfsData
}

type cfsHeap []cfsEntry

func (h cfsHeap) Len() int { return len(h) }

func (h cfsHeap) Less(i, j int) bool {
	if h[i].d.vruntime != h[j].d.vruntime {
		return h[i].d.vruntime < h[j].d.vruntime
	}
	return h[i].d.seq < h[j].d.seq
}

func (h cfsHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].d.index = i
	h[j].d.index = j
}

func (h *cfsHeap) Push(x any) {
	e := x.(cfsEntry)
	e.d.index = len(*h)
	*h = append(*h, e)
}

func (h *cfsHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Interface compliance checks.
var (
	_ Scheduler = (*O1)(nil)
	_ Scheduler = (*CFS)(nil)
)
