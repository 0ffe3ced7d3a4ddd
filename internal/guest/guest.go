// Package guest defines the programming interface that simulated
// user programs are written against. A guest program is ordinary Go
// code (package workloads implements π, Whetstone, and an MD5
// brute-forcer this way) that performs all externally visible actions
// — consuming CPU cycles, touching memory, making system calls,
// calling shared-library functions — through a Context supplied by
// the kernel. The kernel charges virtual time for each action, so a
// program's accounted CPU usage is a deterministic function of the
// work it actually performs.
//
// A guest is written one of two ways: as blocking code (a Routine),
// or as a resumable guest, a plain value whose Activate method runs it
// from one reply to its next request and which Resumable binds into a
// Step (see step.go). A resumable guest's whole state is its value, so
// a machine checkpoint forks it by copying the value, and RetryStep,
// the resumable form of the retry wrappers, is plain data inside it.
package guest

import (
	"repro/internal/device"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Frame is one addressed network frame (see device.Frame): Src/Dst
// fabric addresses, a flow id, a payload size, and the ECN capability
// and congestion-experienced bits.
type Frame = device.Frame

// Addr is a fabric address (see device.Addr).
type Addr = device.Addr

// Routine is guest code: a program main, a thread body, a library
// constructor, or injected attack instructions.
type Routine func(Context)

// LibFunc is a shared-library function. Interposition (the paper's
// function-substitution attack) works because calls resolve through
// the dynamic linker's search order at call time. The args slice may
// alias a per-task scratch buffer: implementations must not retain it
// past the call, and its contents are only valid until the next
// library call on the same context.
type LibFunc func(ctx Context, args []uint64) uint64

// WaitResult describes a child-state change reported by Wait.
type WaitResult struct {
	PID proc.PID
	// Stopped is true when the child stopped (ptrace trap or
	// SIGSTOP) rather than exited.
	Stopped bool
	// ExitCode is valid when Stopped is false.
	ExitCode int
}

// Context is the guest's window onto the simulated machine. All
// methods may block in virtual time; none are safe to call after
// Exit. The kernel implements this interface.
type Context interface {
	// PID returns the calling task's pid.
	PID() proc.PID

	// Compute executes d cycles of user-mode instructions. The slice
	// may be preempted and resumed transparently; Compute returns
	// once d cycles of this task's execution have elapsed.
	Compute(d sim.Cycles)

	// Load performs a memory read at a virtual address. It may page-
	// fault (charged as system time) and may trigger a hardware
	// watchpoint if a tracer armed one.
	Load(addr uint64)

	// Store performs a memory write at a virtual address.
	Store(addr uint64)

	// Call invokes a shared-library function through the dynamic
	// linker (LD_PRELOAD honoured). It panics if the symbol is
	// undefined anywhere in the link map, mirroring a link failure.
	Call(fn string, args ...uint64) uint64

	// Call1 is Call for the one-argument case. It avoids
	// materialising a variadic slice per invocation, which matters
	// for allocator- and libm-heavy programs making hundreds of
	// thousands of library calls.
	Call1(fn string, a0 uint64) uint64

	// Syscall performs a generic kernel service of the named class
	// ("read", "write", "stat", ...), charging syscall entry/exit
	// plus the class's service time as system time. A non-nil error
	// is an injected Errno from the machine's FaultSpec: the kernel
	// performed (and billed) the full entry/service/exit path and
	// then failed the request, exactly like a driver-level EIO.
	Syscall(name string) error

	// Fork creates a child process that runs body and then exits.
	// Returns the child pid. The child inherits nice and env.
	Fork(name string, body Routine) proc.PID

	// SpawnThread creates a thread (a task sharing this process's
	// address space and thread group) running body.
	SpawnThread(name string, body Routine) proc.PID

	// Wait blocks until a child changes state (exits or stops) and
	// reaps exited children. ok is false when no children exist.
	Wait() (WaitResult, bool)

	// Exit terminates the calling task. It does not return.
	Exit(code int)

	// Yield relinquishes the CPU voluntarily (sched_yield).
	Yield()

	// Sleep blocks the task for d cycles of virtual wall time.
	Sleep(d sim.Cycles)

	// SetNice adjusts the calling task's nice value. Raising
	// priority (lowering nice) models a root-privileged attacker.
	SetNice(n int)

	// Nice reads the calling task's nice value (getpriority).
	Nice() int

	// Getenv reads the process environment.
	Getenv(key string) string

	// Setenv writes the calling process's environment (children
	// inherit it at fork) — how a designated shell arranges a
	// victim-specific LD_PRELOAD.
	Setenv(key, value string)

	// FindProcess returns the pid of a live process with the given
	// name, enabling runtime attacks (tracer, memory hog, fork
	// storm) to locate their victim as `ps` would.
	FindProcess(name string) (proc.PID, bool)

	// Rand returns the machine's deterministic random source.
	Rand() *sim.Rand

	// Ptrace issues a process-trace request, as used by the
	// execution-thrashing attack.
	Ptrace(req PtraceRequest, pid proc.PID, addr uint64, data uint64) error

	// Usage returns the calling task's own accounted CPU time under
	// the billing accountant, like getrusage(RUSAGE_SELF).
	Usage() (user, system sim.Cycles)

	// ClockNow reads the guest-visible monotonic clock — the
	// machine's current virtual cycle count, as
	// clock_gettime(CLOCK_MONOTONIC) would — charged as a gettime
	// syscall. Unlike Usage it advances while the task is off the
	// CPU, which is what lets a sender arm a real retransmission
	// timeout instead of counting its own poll ticks.
	ClockNow() sim.Cycles

	// NetSend transmits one addressed frame on the machine's NIC: the
	// kernel stamps f.Src with the machine's own fabric address and
	// hands the frame to the NIC's transmit function (a cluster's
	// forwarding table for the machine, one entry per reachable
	// machine, resolves f.Dst onto a link). The kernel charges
	// the sendto syscall plus the driver tx path as system time. It
	// reports whether the frame was carried: false models
	// ENOBUFS/EHOSTUNREACH-style local drop feedback — no route, a
	// full queue on the wire, or a dead destination. A non-nil error
	// is an injected sendto fault (FaultSpec): the syscall was billed
	// but failed before reaching the driver, so the frame was never
	// offered to the wire and carried is false.
	NetSend(f Frame) (carried bool, err error)

	// NetForward retransmits a frame as-is — Src preserved — toward
	// f.Dst, the data plane of a forwarding router: the receiver of a
	// forwarded frame still sees the original sender and can ack it
	// across the hop. Charged like NetSend (sendto plus driver tx),
	// with the same injected-fault semantics.
	NetForward(f Frame) (carried bool, err error)

	// NetRecv pops the next received frame from the kernel's
	// bounded receive buffer (charged as a read syscall). ok is
	// false when the buffer is empty. Local flood packets and
	// payload-less injections deliver interrupts but queue no frame.
	// A non-nil error is an injected read fault: the syscall was
	// billed, ok is false, and any buffered frame stays queued for
	// the next attempt — err, not ok, distinguishes "fault" from
	// "drained", so pollers must not treat a faulted read as empty.
	NetRecv() (f Frame, ok bool, err error)

	// NetAddr reads the machine's own fabric address (zero outside
	// any fabric). A forwarding daemon uses it to consume frames
	// addressed to itself instead of re-routing them.
	NetAddr() Addr

	// NetRxWait blocks until the NIC has delivered more than seen
	// frames, then returns the new total. A responder daemon pairs it
	// with NetSend to acknowledge traffic, which is what lets a
	// cluster express ack-paced flows whose rate is shaped by the
	// receiver's responsiveness.
	NetRxWait(seen uint64) uint64

	// Exec replaces the task's image with prog, as execve does: the
	// kernel charges image load and dynamic-linking time, library
	// constructors run, then prog.Main, then destructors. Exec
	// returns when the program completes (the task then exits unless
	// the caller continues).
	Exec(prog *Program)
}

// PtraceRequest enumerates the ptrace operations the thrashing attack
// needs (Section IV-B2).
type PtraceRequest int

const (
	// PtraceAttach attaches to a process and stops it with SIGSTOP.
	PtraceAttach PtraceRequest = iota + 1
	// PtraceCont resumes a stopped tracee.
	PtraceCont
	// PtracePokeUser writes a tracee debug register: addr selects
	// DR0 (watch address) or DR7 (enable), data is the value.
	PtracePokeUser
	// PtraceDetach detaches and resumes the tracee.
	PtraceDetach
)

func (r PtraceRequest) String() string {
	switch r {
	case PtraceAttach:
		return "PTRACE_ATTACH"
	case PtraceCont:
		return "PTRACE_CONT"
	case PtracePokeUser:
		return "PTRACE_POKEUSER"
	case PtraceDetach:
		return "PTRACE_DETACH"
	default:
		return "PTRACE_UNKNOWN"
	}
}

// Debug register selectors for PtracePokeUser's addr argument,
// mirroring offsetof(struct user, u_debugreg[N]).
const (
	DR0 uint64 = 0
	DR7 uint64 = 7
)

// Program is an executable image: what execve loads. Content stands
// in for the binary's bytes; the integrity subsystem hashes it, so
// two programs with the same name but different behaviour measure
// differently.
type Program struct {
	Name string
	// Content is a stable description of the program's code used
	// for integrity measurement.
	Content string
	// Libs are the shared libraries linked at startup, by name.
	Libs []string
	// Main is the program entry point, invoked after the dynamic
	// linker finishes and library constructors run.
	Main Routine
}
