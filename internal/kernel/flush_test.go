package kernel

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// tscMachine bills with tsc, then any extra accountants.
func tscMachine(extra ...metering.Accountant) *Machine {
	return New(Config{
		Seed:        1,
		CPUHz:       1_000_000_000,
		MaxSteps:    50_000_000,
		Accountants: append([]metering.Accountant{metering.NewTSC()}, extra...),
	})
}

// TestUsageReadFlushes pins the flush before a guest's usage read: the
// compute's cycles are still unbilled when Usage is posted.
func TestUsageReadFlushes(t *testing.T) {
	m := tscMachine()
	var user sim.Cycles
	if _, err := m.Spawn(SpawnConfig{Name: "self-aware", Body: func(ctx guest.Context) {
		ctx.Compute(20_000_000)
		user, _ = ctx.Usage()
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if user != 20_000_000 {
		t.Fatalf("Usage() after Compute(20_000_000) read %d user cycles, want 20000000", user)
	}
}

// TestReapFlushes pins the flush before OnReap: a child's cycles are
// still unbilled when its parent's Wait reaps it, and they must fold
// into the parent's children bucket, not outlive the reap in the
// child's own entry.
func TestReapFlushes(t *testing.T) {
	m := tscMachine()
	const work = 3_000_000
	var child proc.PID
	p, err := m.Spawn(SpawnConfig{Name: "parent", Body: func(ctx guest.Context) {
		child = ctx.Fork("child", func(c guest.Context) { c.Compute(work) })
		if _, ok := ctx.Wait(); !ok {
			panic("wait found no child")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	run(t, m)
	kids, _ := m.ChildrenUsageBy("tsc", p.PID)
	if kids.User != work || kids.System == 0 {
		t.Fatalf("parent's children usage = %+v, want User %d and the child's system time", kids, work)
	}
	if left, _ := m.UsageBy("tsc", child); left != (metering.Usage{}) {
		t.Fatalf("reaped child still holds %+v of its own", left)
	}
}

// runCounter is a tsc ledger that counts the OnRun reports it gets per
// task in each RunUntil slice, and sums them.
type runCounter struct {
	*metering.TSCAccountant
	calls map[proc.PID]int
	run   metering.Usage
}

func (c *runCounter) Name() string { return "run-counter" }

func (c *runCounter) OnRun(p *proc.Proc, md cpu.Mode, d sim.Cycles) {
	c.calls[p.PID]++
	if md == cpu.User {
		c.run.User += d
	} else {
		c.run.System += d
	}
	c.TSCAccountant.OnRun(p, md, d)
}

// TestRunSliceFlushesOncePerTask pins the flush when drive returns, and
// that it is the only one in a compute/sleep storm that reads no usage
// and reaps nothing: after each RunUntil slice, the accountants have
// heard of every user and kernel cycle the CPU ran, in at most two
// OnRun reports per task, and the tsc ledger holds those reports plus
// the interrupt time taken while each task was current.
func TestRunSliceFlushesOncePerTask(t *testing.T) {
	rc := &runCounter{TSCAccountant: metering.NewTSC(), calls: map[proc.PID]int{}}
	m := tscMachine(rc)
	defer m.Shutdown()
	var pids []proc.PID
	for i := range 8 {
		burst, nap := sim.Cycles(20_000+7_919*i), sim.Cycles(30_000+13_001*i)
		var step guest.Step
		computing := false
		step = func(ctx guest.Context, _ guest.Resume) guest.Step {
			if computing = !computing; computing {
				ctx.Compute(burst)
			} else {
				ctx.Sleep(nap)
			}
			return step
		}
		p, err := m.Spawn(SpawnConfig{Name: fmt.Sprintf("storm%d", i), Nice: i%5 - 2, Step: step})
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID)
	}
	tsc, _ := m.Accountants().ByName("tsc")
	for slice := sim.Cycles(1); slice <= 20; slice++ {
		if done, err := m.RunUntil(slice * 2_999_999); err != nil || done {
			t.Fatalf("slice %d: done=%v err=%v", slice, done, err)
		}
		for _, pid := range pids {
			if n := rc.calls[pid]; n > 2 {
				t.Fatalf("slice %d: pid %d got %d OnRun reports, want at most 2", slice, pid, n)
			}
		}
		clear(rc.calls)
		user, kernel, _, _ := m.CPU().Utilization()
		if rc.run.User != user || rc.run.System != kernel {
			t.Fatalf("slice %d: OnRun reported %+v, the CPU ran user %d kernel %d", slice, rc.run, user, kernel)
		}
		var ledger metering.Usage
		var irq sim.Cycles
		for _, pid := range pids {
			ledger = ledger.Add(tsc.Usage(pid))
			irq += m.Stats(pid).IRQCycles
		}
		if ledger.User != rc.run.User || ledger.System != rc.run.System+irq {
			t.Fatalf("slice %d: tsc ledger %+v, want OnRun reports %+v plus %d interrupt cycles", slice, ledger, rc.run, irq)
		}
	}
}
