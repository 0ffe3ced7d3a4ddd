package sched

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/proc"
	"repro/internal/sim"
)

func mk(pid int, nice int) *proc.Proc {
	p := proc.New(proc.PID(pid), "t", nil)
	p.SetNice(nice)
	return p
}

func TestO1TimesliceFormula(t *testing.T) {
	s := NewO1(1) // 1 cycle per ms so values are in ms
	cases := map[int]sim.Cycles{
		0:   100, // DEF_TIMESLICE
		19:  5,   // MIN_TIMESLICE
		-20: 800, // max boost
	}
	for nice, want := range cases {
		if got := s.Timeslice(nice); got != want {
			t.Errorf("Timeslice(%d) = %d, want %d", nice, got, want)
		}
	}
	// Monotone: lower nice never gets a shorter slice.
	prev := sim.Cycles(0)
	for nice := proc.MaxNice; nice >= proc.MinNice; nice-- {
		ts := s.Timeslice(nice)
		if ts < prev {
			t.Fatalf("timeslice not monotone at nice %d: %d < %d", nice, ts, prev)
		}
		prev = ts
	}
}

func TestO1PriorityOrder(t *testing.T) {
	s := NewO1(1000)
	lo := mk(1, 10)
	hi := mk(2, -10)
	mid := mk(3, 0)
	s.Enqueue(lo)
	s.Enqueue(hi)
	s.Enqueue(mid)
	if s.Runnable() != 3 {
		t.Fatalf("Runnable = %d", s.Runnable())
	}
	if got := s.PickNext(); got != hi {
		t.Fatalf("first pick = %v, want hi", got)
	}
	if got := s.PickNext(); got != mid {
		t.Fatalf("second pick = %v, want mid", got)
	}
	if got := s.PickNext(); got != lo {
		t.Fatalf("third pick = %v, want lo", got)
	}
	if s.PickNext() != nil {
		t.Fatal("pick from empty queue != nil")
	}
}

func TestO1EpochSwap(t *testing.T) {
	s := NewO1(1000)
	a := mk(1, 0)
	b := mk(2, 0)
	s.Enqueue(a)
	s.Enqueue(b)
	// Both have full slices and sit in expired; the first PickNext
	// must swap arrays and still find them.
	if got := s.PickNext(); got != a {
		t.Fatalf("pick = %v, want a (FIFO within priority)", got)
	}
	// a exhausts its slice; re-enqueue sends it to expired while b
	// still has time in active.
	s.Charge(a, s.Quantum(a))
	s.Enqueue(a)
	if got := s.PickNext(); got != b {
		t.Fatalf("pick = %v, want b before expired a", got)
	}
}

func TestO1RemoveAndDoubleEnqueue(t *testing.T) {
	s := NewO1(1000)
	a := mk(1, 0)
	s.Enqueue(a)
	s.Enqueue(a) // duplicate is a no-op
	if s.Runnable() != 1 {
		t.Fatalf("duplicate enqueue counted: %d", s.Runnable())
	}
	s.Remove(a)
	if s.Runnable() != 0 || s.PickNext() != nil {
		t.Fatal("remove left task behind")
	}
	s.Remove(a) // double remove is a no-op
}

func TestO1RemovePanicsOnCorruptQueuedFlag(t *testing.T) {
	s := NewO1(1000)
	p := mk(7, 5)
	s.data(p).queued = true // flagged queued, but in neither array
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "pid 7") || !strings.Contains(msg, "nice index 25") {
			t.Fatalf("Remove of a corrupt task panicked with %q, want the pid and nice index named", msg)
		}
	}()
	s.Remove(p)
}

func TestO1InPlacePopKeepsFIFOAndClone(t *testing.T) {
	s := NewO1(1000)
	ps := []*proc.Proc{mk(1, 0), mk(2, 0), mk(3, 0), mk(4, 0)}
	for _, p := range ps {
		s.Enqueue(p)
	}
	if got := s.PickNext(); got != ps[0] {
		t.Fatalf("first pick = %v, want %v", got, ps[0])
	}
	s.Remove(ps[2])
	pmap := map[*proc.Proc]*proc.Proc{}
	for _, p := range ps {
		pmap[p] = mk(int(p.PID), 0)
	}
	c := s.Clone(pmap)
	for _, want := range []*proc.Proc{ps[1], ps[3]} {
		if got := s.PickNext(); got != want {
			t.Fatalf("original pick = %v, want %v", got, want)
		}
		if got := c.PickNext(); got != pmap[want] {
			t.Fatalf("clone pick = %v, want %v", got, pmap[want])
		}
	}
	if s.PickNext() != nil || c.PickNext() != nil {
		t.Fatal("queues not drained")
	}
}

// TestO1SteadyStateAllocFree pins the flyweight wake path: once every
// bucket has grown to its peak, an Enqueue/PickNext/Charge cycle (plus
// a Remove/Enqueue of a queued task) allocates nothing.
func TestO1SteadyStateAllocFree(t *testing.T) {
	s := NewO1(1000)
	procs := make([]*proc.Proc, 64)
	for i := range procs {
		procs[i] = mk(i+1, proc.MinNice+i*7%40)
		s.Enqueue(procs[i])
	}
	k := 0
	cycle := func() {
		p := s.PickNext()
		s.Charge(p, s.Quantum(p)/3+1)
		s.Enqueue(p)
		q := procs[k%len(procs)]
		k++
		s.Remove(q)
		s.Enqueue(q)
	}
	for i := 0; i < 5000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("O1 cycle allocates %.2f times, want 0", allocs)
	}
	if s.Runnable() != len(procs) {
		t.Fatalf("Runnable = %d, want %d", s.Runnable(), len(procs))
	}
}

func TestO1ChargeConsumesSlice(t *testing.T) {
	s := NewO1(1000)
	a := mk(1, 0)
	q := s.Quantum(a)
	s.Charge(a, q/2)
	if got := s.Quantum(a); got != q/2 {
		t.Fatalf("remaining = %d, want %d", got, q/2)
	}
	s.Charge(a, q) // overrun clamps at zero, next Quantum refills
	if got := s.Quantum(a); got != q {
		t.Fatalf("refilled = %d, want %d", got, q)
	}
}

func TestO1Preemption(t *testing.T) {
	s := NewO1(1000)
	cur := mk(1, 0)
	hi := mk(2, -5)
	lo := mk(3, 5)
	if !s.ShouldPreempt(cur, hi) {
		t.Fatal("higher priority should preempt")
	}
	if s.ShouldPreempt(cur, lo) {
		t.Fatal("lower priority should not preempt")
	}
	if s.ShouldPreempt(cur, mk(4, 0)) {
		t.Fatal("equal priority should not preempt")
	}
	if !s.ShouldPreempt(nil, lo) {
		t.Fatal("idle CPU should always be preempted")
	}
}

func TestCFSFairPick(t *testing.T) {
	s := NewCFS(1000)
	a := mk(1, 0)
	b := mk(2, 0)
	s.Enqueue(a)
	s.Enqueue(b)
	first := s.PickNext()
	if first != a {
		t.Fatalf("tie should break by insertion order, got %v", first)
	}
	s.Charge(a, 10_000)
	s.Enqueue(a)
	if got := s.PickNext(); got != b {
		t.Fatalf("pick = %v, want b (lower vruntime)", got)
	}
}

func TestCFSWeightedCharge(t *testing.T) {
	s := NewCFS(1000)
	hi := mk(1, -20) // weight 88761
	lo := mk(2, 19)  // weight 15
	s.Charge(hi, 88761)
	s.Charge(lo, 15)
	dhi := hi.SchedData.(*cfsData)
	dlo := lo.SchedData.(*cfsData)
	if dhi.vruntime != 1024 || dlo.vruntime != 1024 {
		t.Fatalf("vruntime = %d/%d, want 1024/1024 (weight-normalised)", dhi.vruntime, dlo.vruntime)
	}
}

func TestCFSQuantumSharesLatency(t *testing.T) {
	s := NewCFS(1000)
	solo := mk(1, 0)
	if got := s.Quantum(solo); got != 20_000 {
		t.Fatalf("solo quantum = %d, want 20000 (full latency)", got)
	}
	for i := 2; i <= 40; i++ {
		s.Enqueue(mk(i, 0))
	}
	if got := s.Quantum(solo); got != 1000 {
		t.Fatalf("loaded quantum = %d, want 1000 (min granularity)", got)
	}
}

func TestCFSNewcomerStartsAtMinVruntime(t *testing.T) {
	s := NewCFS(1000)
	old := mk(1, 0)
	s.Enqueue(old)
	s.Charge(old, 1_000_000)
	s.Enqueue(old)
	_ = s.PickNext() // advances minVruntime to old's
	s.Enqueue(old)
	late := mk(2, 0)
	s.Enqueue(late)
	// The newcomer must not have vruntime 0 (which would starve old).
	d := late.SchedData.(*cfsData)
	if d.vruntime == 0 {
		t.Fatal("newcomer started at 0 vruntime, would starve the queue")
	}
}

func TestCFSRemove(t *testing.T) {
	s := NewCFS(1000)
	a, b, c := mk(1, 0), mk(2, 0), mk(3, 0)
	s.Enqueue(a)
	s.Enqueue(b)
	s.Enqueue(c)
	s.Remove(b)
	if s.Runnable() != 2 {
		t.Fatalf("Runnable = %d, want 2", s.Runnable())
	}
	got := []*proc.Proc{s.PickNext(), s.PickNext()}
	if got[0] != a || got[1] != c {
		t.Fatalf("picks = %v,%v want a,c", got[0], got[1])
	}
	s.Remove(b) // double remove no-op
}

func TestWeightTableShape(t *testing.T) {
	if WeightOf(0) != 1024 {
		t.Fatalf("WeightOf(0) = %d, want 1024", WeightOf(0))
	}
	// Each nice step should change weight by roughly 25% (the ~10%
	// CPU-share rule); check monotone decrease.
	for n := proc.MinNice; n < proc.MaxNice; n++ {
		if WeightOf(n) <= WeightOf(n+1) {
			t.Fatalf("weights not decreasing at nice %d", n)
		}
	}
}

// Property: both schedulers conserve tasks — everything enqueued is
// eventually picked exactly once, in any interleaving of enqueues.
func TestConservationProperty(t *testing.T) {
	for _, mkSched := range []func() Scheduler{
		func() Scheduler { return NewO1(1000) },
		func() Scheduler { return NewCFS(1000) },
	} {
		mkSched := mkSched
		f := func(nices []int8) bool {
			s := mkSched()
			want := map[proc.PID]bool{}
			for i, n := range nices {
				p := mk(i+1, int(n)%20)
				want[p.PID] = true
				s.Enqueue(p)
			}
			got := map[proc.PID]bool{}
			for {
				p := s.PickNext()
				if p == nil {
					break
				}
				if got[p.PID] {
					return false // picked twice
				}
				got[p.PID] = true
			}
			return len(got) == len(want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	}
}
