package metering

import (
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/proc"
	"repro/internal/sim"
)

func mkProc(pid proc.PID) *proc.Proc {
	p := proc.New(pid, "t", nil)
	return p
}

func TestUsageArithmetic(t *testing.T) {
	a := Usage{User: 10, System: 5}
	b := Usage{User: 3, System: 7}
	if got := a.Add(b); got != (Usage{User: 13, System: 12}) {
		t.Fatalf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Usage{User: 7, System: 0}) {
		t.Fatalf("Sub = %+v (system must clamp at 0)", got)
	}
	if a.Total() != 15 {
		t.Fatalf("Total = %d", a.Total())
	}
	u, s := a.Seconds(10)
	if u != 1.0 || s != 0.5 {
		t.Fatalf("Seconds = %v,%v", u, s)
	}
}

func TestJiffyChargesWholeTicks(t *testing.T) {
	a := NewJiffy(1000)
	p := mkProc(5)
	a.OnTick(p, cpu.User)
	a.OnTick(p, cpu.User)
	a.OnTick(p, cpu.Kernel)
	a.OnTick(nil, cpu.Kernel) // idle tick: charged to nobody
	u := a.Usage(5)
	if u.User != 2000 || u.System != 1000 {
		t.Fatalf("usage = %+v, want 2000/1000", u)
	}
	// OnRun and OnInterrupt must not affect jiffy accounting.
	a.OnRun(p, cpu.User, 999999)
	a.OnInterrupt(device.IRQNIC, p, 999999)
	if got := a.Usage(5); got != u {
		t.Fatalf("jiffy usage changed by OnRun/OnInterrupt: %+v", got)
	}
	if a.TickCycles() != 1000 {
		t.Fatalf("TickCycles = %d", a.TickCycles())
	}
}

func TestTSCChargesExactSlices(t *testing.T) {
	a := NewTSC()
	p := mkProc(7)
	a.OnRun(p, cpu.User, 123)
	a.OnRun(p, cpu.Kernel, 77)
	a.OnTick(p, cpu.User) // ignored
	u := a.Usage(7)
	if u.User != 123 || u.System != 77 {
		t.Fatalf("usage = %+v, want 123/77", u)
	}
	// TSC still bills interrupts to the current task (Linux flaw).
	a.OnInterrupt(device.IRQNIC, p, 50)
	if got := a.Usage(7).System; got != 127 {
		t.Fatalf("system after IRQ = %d, want 127", got)
	}
}

func TestProcessAwareDivertsIRQTime(t *testing.T) {
	a := NewProcessAware()
	p := mkProc(9)
	a.OnRun(p, cpu.User, 100)
	a.OnInterrupt(device.IRQNIC, p, 60)
	if got := a.Usage(9); got.System != 0 || got.User != 100 {
		t.Fatalf("victim usage = %+v, want 100/0", got)
	}
	if got := a.Usage(SystemPID); got.System != 60 {
		t.Fatalf("system account = %+v, want system=60", got)
	}
}

func TestThreadRollupToTGID(t *testing.T) {
	leader := mkProc(10)
	worker := proc.New(11, "w", nil)
	worker.TGID = 10
	a := NewTSC()
	a.OnRun(leader, cpu.User, 100)
	a.OnRun(worker, cpu.User, 50)
	if got := a.Usage(10).User; got != 150 {
		t.Fatalf("rolled-up user = %d, want 150", got)
	}
	if got := a.Usage(11).User; got != 0 {
		t.Fatalf("worker billed separately: %d", got)
	}
}

func TestMultiFansOut(t *testing.T) {
	j := NewJiffy(1000)
	ts := NewTSC()
	m := NewMulti(j, ts)
	p := mkProc(3)
	m.OnTick(p, cpu.User)
	m.OnRun(p, cpu.User, 400)
	m.OnInterrupt(device.IRQNIC, p, 10)
	if j.Usage(3).User != 1000 {
		t.Fatalf("jiffy did not receive tick: %+v", j.Usage(3))
	}
	if ts.Usage(3).User != 400 {
		t.Fatalf("tsc did not receive run: %+v", ts.Usage(3))
	}
	if got, ok := m.ByName("tsc"); !ok || got != Accountant(ts) {
		t.Fatal("ByName(tsc) failed")
	}
	if _, ok := m.ByName("nope"); ok {
		t.Fatal("ByName(nope) succeeded")
	}
	if len(m.Accountants()) != 2 {
		t.Fatal("Accountants() wrong length")
	}
	if m.Usage(3) != j.Usage(3) {
		t.Fatal("Multi.Usage should delegate to first accountant")
	}
}

func TestEmptyMulti(t *testing.T) {
	m := NewMulti()
	if m.Usage(1) != (Usage{}) {
		t.Fatal("empty multi usage not zero")
	}
	if m.Snapshot() != nil {
		t.Fatal("empty multi snapshot not nil")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	a := NewTSC()
	p := mkProc(2)
	a.OnRun(p, cpu.User, 10)
	snap := a.Snapshot()
	snap[2] = Usage{User: 999}
	if a.Usage(2).User != 10 {
		t.Fatal("snapshot mutation leaked into ledger")
	}
}

func TestReapFoldsIntoChildrenBucket(t *testing.T) {
	a := NewTSC()
	parent := mkProc(1)
	child := mkProc(2)
	grandchild := mkProc(3)
	a.OnRun(child, cpu.User, 100)
	a.OnRun(grandchild, cpu.Kernel, 40)
	// Child reaps grandchild, then parent reaps child: the
	// grandchild's time must cascade into the parent's bucket.
	a.OnReap(child.PID, grandchild.PID, false)
	if got := a.ChildrenUsage(child.PID); got.System != 40 {
		t.Fatalf("child's children bucket = %+v, want system=40", got)
	}
	a.OnReap(parent.PID, child.PID, false)
	got := a.ChildrenUsage(parent.PID)
	if got.User != 100 || got.System != 40 {
		t.Fatalf("parent children bucket = %+v, want 100/40", got)
	}
	// Child's entries are gone.
	if a.Usage(child.PID) != (Usage{}) || a.ChildrenUsage(child.PID) != (Usage{}) {
		t.Fatal("reaped child ledger entries not dropped")
	}
	// Reaping a task with no usage is a no-op.
	a.OnReap(parent.PID, proc.PID(99), false)
}

func TestReapKeepsBillableEntries(t *testing.T) {
	a := NewTSC()
	child, grandchild := mkProc(2), mkProc(3)
	a.OnRun(child, cpu.User, 100)
	a.OnRun(grandchild, cpu.Kernel, 40)
	a.OnReap(child.PID, grandchild.PID, false)
	a.OnReap(1, child.PID, true)
	if got := a.ChildrenUsage(1); got.User != 100 || got.System != 40 {
		t.Fatalf("parent children bucket = %+v, want 100/40", got)
	}
	if a.Usage(child.PID).User != 100 || a.ChildrenUsage(child.PID).System != 40 {
		t.Fatalf("kept child reads %+v own, %+v children; want 100 user, 40 system",
			a.Usage(child.PID), a.ChildrenUsage(child.PID))
	}
}

func TestMultiReapFansOut(t *testing.T) {
	j := NewJiffy(100)
	ts := NewTSC()
	m := NewMulti(j, ts)
	child := mkProc(5)
	m.OnTick(child, cpu.User)
	m.OnRun(child, cpu.User, 70)
	m.OnReap(1, 5, false)
	if j.ChildrenUsage(1).User != 100 || ts.ChildrenUsage(1).User != 70 {
		t.Fatalf("fan-out reap: jiffy=%+v tsc=%+v", j.ChildrenUsage(1), ts.ChildrenUsage(1))
	}
	if m.ChildrenUsage(1) != j.ChildrenUsage(1) {
		t.Fatal("Multi.ChildrenUsage should delegate to first scheme")
	}
	if NewMulti().ChildrenUsage(1) != (Usage{}) {
		t.Fatal("empty multi children usage not zero")
	}
}

func TestSortedPIDs(t *testing.T) {
	snap := map[proc.PID]Usage{5: {}, 1: {}, 3: {}}
	got := SortedPIDs(snap)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("SortedPIDs = %v", got)
	}
}

// Property: for any slice sequence, TSC total equals the sum of all
// slices, and jiffy total equals ticks*tickCycles — the two schemes
// agree exactly when every slice is a whole number of ticks.
func TestConservationProperty(t *testing.T) {
	f := func(slices []uint16) bool {
		j := NewJiffy(100)
		ts := NewTSC()
		p := mkProc(1)
		var total sim.Cycles
		var ticks uint64
		for _, s := range slices {
			d := sim.Cycles(s%50) * 100 // whole ticks
			ts.OnRun(p, cpu.User, d)
			for k := sim.Cycles(0); k < d; k += 100 {
				j.OnTick(p, cpu.User)
				ticks++
			}
			total += d
		}
		return ts.Usage(1).User == total && j.Usage(1).User == sim.Cycles(ticks)*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
