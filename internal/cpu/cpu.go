// Package cpu models the simulated processor: a single core with a
// virtual time-stamp counter (TSC), a privilege mode, and a cost
// table for kernel-level operations. The paper's testbed is a single
// enabled core of an Intel E7200 at 2.53 GHz; the defaults here match
// that configuration.
package cpu

import (
	"repro/internal/sim"
)

// Mode is the processor privilege mode. Accounting charges cycles to
// a process's user or system time depending on the mode at the
// moment of the charge, mirroring utime/stime in Linux.
type Mode int

const (
	// User mode: executing the program's own instructions.
	User Mode = iota + 1
	// Kernel mode: executing on behalf of a process inside the OS
	// (syscall service, fault handling, signal delivery).
	Kernel
	// Interrupt mode: executing a hardware interrupt handler. The
	// vulnerable accountant treats this as Kernel time of the
	// current process; process-aware accounting separates it.
	Interrupt
)

// String implements fmt.Stringer for diagnostics.
func (m Mode) String() string {
	switch m {
	case User:
		return "user"
	case Kernel:
		return "kernel"
	case Interrupt:
		return "interrupt"
	default:
		return "invalid"
	}
}

// CostModel holds cycle costs for the kernel operations the
// simulation charges explicitly. Values are loosely calibrated to a
// 2008-era 2.53 GHz core running Linux 2.6.29: a context switch in
// the low microseconds, syscall entry in the hundreds of nanoseconds,
// fork around 60 µs, execve plus dynamic linking around a
// millisecond. Only the ratios matter for reproducing the paper's
// shapes.
type CostModel struct {
	ContextSwitch   sim.Cycles // save/restore registers, switch mm, TLB effects
	SyscallEntry    sim.Cycles // mode switch into the kernel
	SyscallExit     sim.Cycles // return to user mode
	IRQEntry        sim.Cycles // interrupt gate, register save
	IRQHandlerNIC   sim.Cycles // NIC rx handler body per packet
	IRQHandlerDisk  sim.Cycles // disk completion handler body per I/O
	NICTx           sim.Cycles // NIC tx path per frame (ring fill, doorbell)
	IRQExit         sim.Cycles // iret path
	TimerHandler    sim.Cycles // timer tick bookkeeping itself
	MinorFault      sim.Cycles // page present in page cache / zero page
	MajorFault      sim.Cycles // fault handler CPU work excluding disk wait
	SignalDeliver   sim.Cycles // set up signal frame
	SignalReturn    sim.Cycles // sigreturn
	DebugException  sim.Cycles // #DB exception dispatch (watchpoint hit)
	PtraceStop      sim.Cycles // tracee stop bookkeeping, notify tracer
	PtraceResume    sim.Cycles // tracer PTRACE_CONT service
	Fork            sim.Cycles // copy task struct, COW page tables
	Execve          sim.Cycles // load image, tear down old mm
	DynamicLink     sim.Cycles // ld.so relocation work per library
	ProcessExit     sim.Cycles // exit path, notify parent
	Wait            sim.Cycles // waitpid service
	SchedPick       sim.Cycles // scheduler pick_next_task work
	DiskAccessSetup sim.Cycles // request queue work for one swap I/O
}

// DefaultCosts returns the calibrated cost model for the given clock
// frequency. Costs scale linearly with frequency so virtual seconds
// stay constant if the experiment changes the clock.
func DefaultCosts(freq sim.Hz) CostModel {
	// perUs is the cycle count of one microsecond at freq.
	perUs := sim.Cycles(freq / 1_000_000)
	if perUs == 0 {
		perUs = 1
	}
	return CostModel{
		ContextSwitch:   3 * perUs,
		SyscallEntry:    perUs / 4,
		SyscallExit:     perUs / 4,
		IRQEntry:        perUs / 2,
		IRQHandlerNIC:   2 * perUs,
		IRQHandlerDisk:  2 * perUs,
		NICTx:           2 * perUs,
		IRQExit:         perUs / 2,
		TimerHandler:    perUs,
		MinorFault:      2 * perUs,
		MajorFault:      25 * perUs,
		SignalDeliver:   3 * perUs,
		SignalReturn:    2 * perUs,
		DebugException:  4 * perUs,
		PtraceStop:      8 * perUs,
		PtraceResume:    6 * perUs,
		Fork:            60 * perUs,
		Execve:          250 * perUs,
		DynamicLink:     400 * perUs,
		ProcessExit:     40 * perUs,
		Wait:            5 * perUs,
		SchedPick:       perUs,
		DiskAccessSetup: 10 * perUs,
	}
}

// CPU is the simulated core. It owns the global clock: reading the
// TSC is reading the clock, exactly as RDTSC reads wall cycles on
// real hardware.
type CPU struct {
	clock *sim.Clock
	costs CostModel
	mode  Mode

	userCycles      sim.Cycles
	kernelCycles    sim.Cycles
	interruptCycles sim.Cycles
}

// New returns a CPU at the given frequency with the default cost
// model. A zero frequency selects the paper's 2.53 GHz.
func New(freq sim.Hz) *CPU {
	if freq == 0 {
		freq = sim.DefaultCPUHz
	}
	return &CPU{
		clock: sim.NewClock(freq),
		costs: DefaultCosts(freq),
		mode:  Kernel, // boots in kernel mode
	}
}

// Clock returns the CPU's clock.
func (c *CPU) Clock() *sim.Clock { return c.clock }

// Clone returns an independent CPU with the same cost model, mode,
// per-mode totals, and an equally-advanced clock (checkpoint restore).
func (c *CPU) Clone() *CPU {
	cp := *c
	cp.clock = c.clock.Clone()
	return &cp
}

// Costs returns the active cost model. It points into the CPU, so the
// kernel reads a cost per request without copying the whole table;
// callers must treat it as read-only and change costs via SetCosts.
func (c *CPU) Costs() *CostModel { return &c.costs }

// SetCosts replaces the cost model in place (used by ablation
// experiments); pointers from Costs see the new values.
func (c *CPU) SetCosts(m CostModel) { c.costs = m }

// TSC returns the current time-stamp counter value.
func (c *CPU) TSC() sim.Cycles { return c.clock.Now() }

// Mode returns the current privilege mode.
func (c *CPU) Mode() Mode { return c.mode }

// SetMode switches privilege mode. The switch itself is free; callers
// charge explicit entry/exit costs from the cost model.
func (c *CPU) SetMode(m Mode) { c.mode = m }

// Run advances virtual time by d cycles in the current mode and
// returns the TSC after the advance. Per-mode totals feed machine
// utilisation reports.
func (c *CPU) Run(d sim.Cycles) sim.Cycles {
	switch c.mode {
	case User:
		c.userCycles += d
	case Interrupt:
		c.interruptCycles += d
	default:
		c.kernelCycles += d
	}
	c.clock.Advance(d)
	return c.clock.Now()
}

// Idle advances virtual time without charging any mode, used when no
// process is runnable and the core halts until the next event.
func (c *CPU) Idle(until sim.Cycles) {
	c.clock.AdvanceTo(until)
}

// Utilization reports the total cycles spent per mode since boot.
func (c *CPU) Utilization() (user, kernel, interrupt sim.Cycles) {
	return c.userCycles, c.kernelCycles, c.interruptCycles
}
