package kernel

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// irqRecorder is a test accountant that records every OnInterrupt
// charge per IRQ line, pinning exactly what the kernel bills for each
// interrupt class.
type irqRecorder struct {
	sum   map[device.IRQ]sim.Cycles
	count map[device.IRQ]int
	min   map[device.IRQ]sim.Cycles
	max   map[device.IRQ]sim.Cycles
}

func newIRQRecorder() *irqRecorder {
	return &irqRecorder{
		sum:   map[device.IRQ]sim.Cycles{},
		count: map[device.IRQ]int{},
		min:   map[device.IRQ]sim.Cycles{},
		max:   map[device.IRQ]sim.Cycles{},
	}
}

func (r *irqRecorder) Name() string                           { return "irq-recorder" }
func (r *irqRecorder) OnTick(*proc.Proc, cpu.Mode)            {}
func (r *irqRecorder) OnRun(*proc.Proc, cpu.Mode, sim.Cycles) {}
func (r *irqRecorder) Usage(proc.PID) metering.Usage          { return metering.Usage{} }
func (r *irqRecorder) OnReap(proc.PID, proc.PID, bool)        {}
func (r *irqRecorder) ChildrenUsage(proc.PID) metering.Usage  { return metering.Usage{} }
func (r *irqRecorder) Snapshot() map[proc.PID]metering.Usage  { return nil }
func (r *irqRecorder) Clone() metering.Accountant             { return r }
func (r *irqRecorder) OnInterrupt(irq device.IRQ, _ *proc.Proc, d sim.Cycles) {
	r.sum[irq] += d
	r.count[irq]++
	if r.count[irq] == 1 || d < r.min[irq] {
		r.min[irq] = d
	}
	if d > r.max[irq] {
		r.max[irq] = d
	}
}

// TestDiskIRQChargesHandlerBody pins the disk completion interrupt
// cost: IRQEntry + IRQHandlerDisk + IRQExit, exactly once per
// completed I/O (reads and writebacks alike). The seed tree
// double-charged IRQEntry and omitted the handler body entirely.
func TestDiskIRQChargesHandlerBody(t *testing.T) {
	rec := newIRQRecorder()
	const pages = 8
	m := New(Config{
		Seed:         3,
		CPUHz:        1_000_000_000,
		PhysMemBytes: pages * mem.DefaultPageSize,
		Accountants:  []metering.Accountant{metering.NewTSC(), rec},
	})
	// Two sweeps of twice-RAM dirty pages: the first takes minor
	// faults and dirty evictions (writebacks), the second major
	// faults (blocking reads) on the swapped-out pages.
	_, err := m.Spawn(SpawnConfig{
		Name:    "pager",
		Content: "pager v1",
		Libs:    []string{},
		Body: func(ctx guest.Context) {
			for sweep := 0; sweep < 2; sweep++ {
				for pg := uint64(0); pg < 2*pages; pg++ {
					ctx.Store(0x100000 + pg*mem.DefaultPageSize)
					ctx.Compute(10_000)
				}
			}
			// Outlive the writeback backlog so every queued
			// completion interrupt actually fires before exit.
			ctx.Sleep(1_000_000_000)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	ios, writes := m.Disk().IOs(), m.Disk().Writes()
	if ios == 0 || writes == 0 {
		t.Fatalf("scenario did not exercise the disk: reads=%d writes=%d", ios, writes)
	}
	c := m.CPU().Costs()
	perIRQ := c.IRQEntry + c.IRQHandlerDisk + c.IRQExit
	if got, want := rec.count[device.IRQDisk], int(ios+writes); got != want {
		t.Fatalf("disk IRQs = %d, want %d (one per completed I/O)", got, want)
	}
	if rec.min[device.IRQDisk] != perIRQ || rec.max[device.IRQDisk] != perIRQ {
		t.Fatalf("disk IRQ charge in [%d, %d], want exactly %d = entry(%d)+handler(%d)+exit(%d)",
			rec.min[device.IRQDisk], rec.max[device.IRQDisk], perIRQ,
			c.IRQEntry, c.IRQHandlerDisk, c.IRQExit)
	}
	if got, want := rec.sum[device.IRQDisk], sim.Cycles(ios+writes)*perIRQ; got != want {
		t.Fatalf("total disk IRQ cycles = %d, want %d", got, want)
	}
}

// TestPreemptGridSnapsAtTickBoundary pins the schedulePreempt fix:
// when the grid arithmetic lands the preemption point past the next
// tick (any HZ where tickCycles %% k != 0), the unsigned snap test
// used to wrap and leave the point beyond the tick. It must snap onto
// the tick instead.
func TestPreemptGridSnapsAtTickBoundary(t *testing.T) {
	// tick = 1_000_250 / 250 = 4001 cycles; nice -20 gives k = 8,
	// interval = 500, so from now = 4000 the next grid point is 4500,
	// past the tick at 4001.
	m := New(Config{Seed: 1, CPUHz: 1_000_250, HZ: 250})
	if m.tickCycles != 4001 {
		t.Fatalf("tickCycles = %d, want 4001", m.tickCycles)
	}
	m.cpu.Run(4000)

	m.schedulePreempt(-20)
	at, ok := findEvent(m, "preempt")
	if !ok {
		t.Fatal("no preempt event scheduled")
	}
	if at != m.nextTickAt {
		t.Fatalf("preempt point at %d, want snapped to the tick at %d", at, m.nextTickAt)
	}
}

// TestPreemptGridMidJiffyUnaffected keeps the ordinary case honest:
// a grid point that lands inside the jiffy stays where the grid put
// it.
func TestPreemptGridMidJiffyUnaffected(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_250, HZ: 250})
	m.cpu.Run(1000)
	m.schedulePreempt(-20) // interval 500 → next point 1500
	at, ok := findEvent(m, "preempt")
	if !ok {
		t.Fatal("no preempt event scheduled")
	}
	if at != 1500 {
		t.Fatalf("preempt point at %d, want 1500", at)
	}
}

// findEvent drains the machine queue looking for the first event of
// the given kind (destructive; test-only).
func findEvent(m *Machine, kind string) (sim.Cycles, bool) {
	for m.queue.Len() > 0 {
		e := m.queue.Pop()
		if e.Kind == kind {
			return e.At, true
		}
	}
	return 0, false
}

// TestRunUntilSlicesMatchRun drives one machine to completion in
// fine-grained RunUntil slices (a deliberately awkward slice width
// that divides neither the tick nor any cost constant) and demands
// the exact clock and accounting a plain Run produces — the guarantee
// the cluster's lockstep barrier relies on.
func TestRunUntilSlicesMatchRun(t *testing.T) {
	build := func() (*Machine, proc.PID) {
		m := New(Config{Seed: 9, CPUHz: 1_000_000_000})
		burst := sim.Cycles(300_000)
		p, err := m.Spawn(SpawnConfig{
			Name:    "worker",
			Content: "worker v1",
			Body: func(ctx guest.Context) {
				for i := 0; i < 50; i++ {
					ctx.Compute(burst)
					ctx.Sleep(burst / 3)
					ctx.Store(0x200000 + uint64(i)*64)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, p.PID
	}

	solo, soloPID := build()
	if err := solo.Run(); err != nil {
		t.Fatal(err)
	}

	sliced, slicedPID := build()
	slice := sim.Cycles(1_234_567)
	limit := slice
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("sliced run did not terminate")
		}
		done, err := sliced.RunUntil(limit)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		limit += slice
	}

	if got, want := sliced.Clock().Now(), solo.Clock().Now(); got != want {
		t.Fatalf("sliced clock = %d, solo = %d", got, want)
	}
	for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
		su, _ := solo.UsageBy(scheme, soloPID)
		cu, _ := sliced.UsageBy(scheme, slicedPID)
		if su != cu {
			t.Fatalf("%s usage diverged: sliced %+v, solo %+v", scheme, cu, su)
		}
	}
}

// storeSweep is a flyweight guest that stores once to each of pages
// consecutive pages.
type storeSweep struct {
	pages, i uint64
}

func (g *storeSweep) run(ctx guest.Context, _ guest.Resume) guest.Step {
	if g.i >= g.pages {
		return nil
	}
	ctx.Store(0x400000 + g.i*mem.DefaultPageSize)
	g.i++
	return g.run
}

// TestWritebackBacklogKeepsQueueShallow pins the disk's writeback
// FIFO: a guest that dirties far more pages than the machine has RAM
// piles thousands of writebacks onto the disk, yet the event queue
// holds only the FIFO's head among them, so at no barrier does it
// hold more than a handful of events.
func TestWritebackBacklogKeepsQueueShallow(t *testing.T) {
	const ramPages = 256
	m := New(Config{Seed: 3, CPUHz: 1_000_000_000, PhysMemBytes: ramPages * mem.DefaultPageSize})
	g := &storeSweep{pages: ramPages + 2000}
	if _, err := m.Spawn(SpawnConfig{Name: "sweep", Content: "sweep v1", Step: g.run}); err != nil {
		t.Fatal(err)
	}
	const slice = sim.Cycles(1_000_000) // 1 ms
	peakQueue, peakWrites := 0, 0
	for limit := slice; ; limit += slice {
		done, err := m.RunUntil(limit)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		peakQueue = max(peakQueue, m.queue.Len())
		peakWrites = max(peakWrites, m.Disk().PendingWrites())
	}
	t.Logf("peak queue %d, peak pending writes %d", peakQueue, peakWrites)
	if peakQueue > 16 {
		t.Fatalf("the event queue held %d events at a barrier, want at most 16", peakQueue)
	}
	if peakWrites < 1000 {
		t.Fatalf("at most %d writebacks were pending at a barrier, want a backlog of at least 1000", peakWrites)
	}
	if g.i != g.pages {
		t.Fatalf("the guest stored to %d of %d pages", g.i, g.pages)
	}
}
