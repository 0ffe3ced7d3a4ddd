// Package sched implements the simulated schedulers. The paper's
// testbed ran Linux 2.6.29; its scheduling attack (Section IV-B1)
// depends only on two properties every general-purpose scheduler has:
// a task's nice value controls how often and how long it runs, and a
// context switch can happen in the middle of a jiffy. Two policies
// are provided so the ablation benches can compare them:
//
//   - O1: an O(1)-style priority scheduler with active/expired arrays
//     and nice-scaled timeslices (the 2.6.8–2.6.22 design). Each array
//     is built like 2.6's prio_array: a bitmap of non-empty levels and
//     one FIFO run list per level, linked through the tasks, so a pick
//     is a find-first-bit and a list pop, and an idle pick is free.
//   - CFS: a virtual-runtime fair scheduler with the kernel's
//     prio_to_weight table (2.6.23+), for the paper's remark that CFS
//     changes the time composition but is still tick-sampled.
package sched

import (
	"fmt"
	"math/bits"

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
	// Recycle resets the per-task record of p, an exited task that no
	// queue holds, for the next task on p's PCB (see proc.Table.Reuse):
	// that task starts with a fresh timeslice or a fresh placement, as
	// a new record would.
	Recycle(p *proc.Proc)
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
// While queued, prev and next link the task into a circular run list
// (the head's prev is the tail), and array and level record which
// list, so Remove unlinks without searching.
type o1Data struct {
	prev, next *proc.Proc
	remaining  sim.Cycles // unused timeslice
	array      uint8      // index into O1.arrays of the list p is linked into
	level      uint8      // nice index of that list
	queued     bool
	exhausted  bool // slice ran out while running (→ expired array)
}

func o1Of(p *proc.Proc) *o1Data { return p.SchedData.(*o1Data) }

// prioArray is one of the O(1) scheduler's two priority arrays, built
// like Linux 2.6's prio_array: a bitmap of the non-empty levels and
// one FIFO run list per level, linked through the tasks themselves.
// heads grows lazily to the highest nice index ever queued instead of
// inlining all 40 list heads, so an idle machine's scheduler is a few
// words — which dominates both resident memory and checkpoint image
// size when thousands of machines are resident (see
// BenchmarkResidentMachines).
type prioArray struct {
	bitmap uint64       // bit i set iff heads[i] != nil; 40 levels fit
	heads  []*proc.Proc // first task of each level's run list
}

// push links p at the tail of level idx's run list.
func (a *prioArray) push(idx int, p *proc.Proc, d *o1Data) {
	if idx >= len(a.heads) {
		a.heads = append(a.heads, make([]*proc.Proc, idx+1-len(a.heads))...)
	}
	d.level = uint8(idx)
	head := a.heads[idx]
	if head == nil {
		a.heads[idx] = p
		a.bitmap |= 1 << idx
		d.prev, d.next = p, p
		return
	}
	hd := o1Of(head)
	tail := hd.prev
	o1Of(tail).next = p
	d.prev, d.next = tail, head
	hd.prev = p
}

// unlink takes p out of level idx's run list.
func (a *prioArray) unlink(idx int, p *proc.Proc, d *o1Data) {
	if d.next == p {
		a.heads[idx] = nil
		a.bitmap &^= 1 << idx
	} else {
		o1Of(d.prev).next = d.next
		o1Of(d.next).prev = d.prev
		if a.heads[idx] == p {
			a.heads[idx] = d.next
		}
	}
	d.prev, d.next = nil, nil
}

// clone returns a copy of the array whose lists hold pmap's images of
// a's tasks, each list relinked in its original (FIFO) order. The
// cloned tasks' SchedData slots must already exist.
func (a *prioArray) clone(pmap map[*proc.Proc]*proc.Proc) prioArray {
	if len(a.heads) == 0 {
		return prioArray{}
	}
	c := prioArray{heads: make([]*proc.Proc, len(a.heads))}
	for idx, head := range a.heads {
		if head == nil {
			continue
		}
		p := head
		for {
			cp := pmap[p]
			c.push(idx, cp, o1Of(cp))
			if p = o1Of(p).next; p == head {
				break
			}
		}
	}
	return c
}

// O1 is the active/expired priority-array scheduler. The two arrays
// are addressed by index, and the epoch swap flips active, as Linux
// swaps rq->active and rq->expired.
type O1 struct {
	cyclesPerMs sim.Cycles
	arrays      [2]prioArray
	active      uint8 // arrays[active] is active, arrays[active^1] expired
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

// Recycle implements Scheduler.
func (s *O1) Recycle(p *proc.Proc) {
	if d, ok := p.SchedData.(*o1Data); ok {
		if d.queued {
			panic(fmt.Sprintf("sched: O1.Recycle: pid %d is still queued", p.PID))
		}
		*d = o1Data{}
	}
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
	d.array = s.active
	if d.remaining == 0 {
		d.remaining = s.Timeslice(p.Nice())
		if d.exhausted {
			d.array ^= 1
		}
		d.exhausted = false
	}
	s.arrays[d.array].push(niceIndex(p.Nice()), p, d)
	s.n++
}

// Remove implements Scheduler: it unlinks p from the list it was
// queued on, whatever p's nice value is now. A task flagged queued
// but linked into no list is a corrupted runqueue, and Remove panics
// rather than miscount.
func (s *O1) Remove(p *proc.Proc) {
	d := s.data(p)
	if !d.queued {
		return
	}
	if d.next == nil || s.arrays[d.array].bitmap&(1<<d.level) == 0 {
		panic(fmt.Sprintf("sched: O1.Remove: pid %d is flagged queued but linked into no run list (nice index %d)", p.PID, niceIndex(p.Nice())))
	}
	s.arrays[d.array].unlink(int(d.level), p, d)
	d.queued = false
	s.n--
}

// PickNext implements Scheduler: the head of the lowest non-empty
// level of the active array; when the active array has drained, the
// arrays swap first (a scheduling epoch).
func (s *O1) PickNext() *proc.Proc {
	if s.n == 0 {
		return nil
	}
	a := &s.arrays[s.active]
	if a.bitmap == 0 {
		s.active ^= 1
		a = &s.arrays[s.active]
	}
	idx := bits.TrailingZeros64(a.bitmap)
	p := a.heads[idx]
	d := o1Of(p)
	a.unlink(idx, p, d)
	d.queued = false
	s.n--
	return p
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
// state too); both priority arrays are relinked in identical order.
func (s *O1) Clone(pmap map[*proc.Proc]*proc.Proc) Scheduler {
	c := &O1{cyclesPerMs: s.cyclesPerMs, active: s.active, n: s.n}
	//simlint:unordered-ok each task's SchedData slot is rebuilt independently; no cross-task state depends on visit order
	for p, cp := range pmap {
		if d, ok := p.SchedData.(*o1Data); ok {
			dd := *d
			cp.SchedData = &dd
		}
	}
	for i := range s.arrays {
		c.arrays[i] = s.arrays[i].clone(pmap)
	}
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
	// rem is what Charge's division left over, carried into the next
	// charge (it fits beside queued, so the record stays 32 bytes).
	rem   uint32
	seq   uint64
	index int
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

// Recycle implements Scheduler.
func (s *CFS) Recycle(p *proc.Proc) {
	if d, ok := p.SchedData.(*cfsData); ok {
		if d.queued {
			panic(fmt.Sprintf("sched: CFS.Recycle: pid %d is still queued", p.PID))
		}
		*d = cfsData{index: -1}
	}
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
	s.h.push(cfsEntry{p: p, d: d})
}

// Remove implements Scheduler. A task flagged queued whose heap index
// does not hold it is a corrupted runqueue, and Remove panics rather
// than take out the wrong task or none.
func (s *CFS) Remove(p *proc.Proc) {
	d := s.data(p)
	if !d.queued {
		return
	}
	if d.index < 0 || d.index >= len(s.h) || s.h[d.index].p != p {
		panic(fmt.Sprintf("sched: CFS.Remove: pid %d is flagged queued but heap index %d does not hold it", p.PID, d.index))
	}
	s.h.removeAt(d.index)
	d.queued = false
	d.index = -1
}

// PickNext implements Scheduler: smallest vruntime first.
func (s *CFS) PickNext() *proc.Proc {
	if len(s.h) == 0 {
		return nil
	}
	e := s.h.removeAt(0)
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
// scaled inversely with weight. The division's remainder carries into
// the next charge, so a run cut into more charges, as RunUntil's
// barriers cut a compute, advances vruntime exactly as one charge of
// the same cycles would.
func (s *CFS) Charge(p *proc.Proc, d sim.Cycles) {
	sd := s.data(p)
	w := WeightOf(p.Nice())
	n := uint64(d)*nice0Weight + uint64(sd.rem)
	sd.vruntime += n / w
	sd.rem = uint32(n % w)
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

// cfsHeap is a binary min-heap ordered by less. It does not use
// container/heap, whose interface boxes every entry pushed, popped or
// removed; it moves entries by value and never allocates once its
// slice has grown. Its sifts take container/heap's steps, so the
// layout Clone copies is the one container/heap would build.
type cfsHeap []cfsEntry

// less orders by vruntime, then by enqueue sequence: a total order,
// so the pop order does not depend on the heap's layout.
func (h cfsHeap) less(i, j int) bool {
	if h[i].d.vruntime != h[j].d.vruntime {
		return h[i].d.vruntime < h[j].d.vruntime
	}
	return h[i].d.seq < h[j].d.seq
}

func (h cfsHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].d.index = i
	h[j].d.index = j
}

func (h *cfsHeap) push(e cfsEntry) {
	e.d.index = len(*h)
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// removeAt takes out the entry at index i and restores the heap order.
func (h *cfsHeap) removeAt(i int) cfsEntry {
	n := len(*h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	e := (*h)[n]
	(*h)[n] = cfsEntry{}
	*h = (*h)[:n]
	return e
}

func (h cfsHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the entry at i0 down within h[:n] and reports whether it
// moved.
func (h cfsHeap) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// Interface compliance checks.
var (
	_ Scheduler = (*O1)(nil)
	_ Scheduler = (*CFS)(nil)
)
