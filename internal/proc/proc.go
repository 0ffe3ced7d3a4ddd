// Package proc defines the simulated process control block: identity,
// the process state machine, the parent/child tree, nice values,
// pending signals, and ptrace linkage. Scheduling policy lives in
// package sched and accounting in package metering; both attach their
// own per-task data to the PCB via opaque slots so neither package
// needs to know the other's types.
package proc

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/mem"
)

// PID is a process identifier. As in Linux 2.6, threads are tasks
// with their own PID sharing an address space; the thread-group id
// (TGID) identifies the containing "process" for billing.
type PID int

// State is the task state machine. It mirrors the subset of Linux
// task states the attacks manipulate.
type State int

const (
	// Embryo: created by fork but never scheduled yet.
	Embryo State = iota + 1
	// Ready: runnable, waiting in a runqueue.
	Ready
	// Running: currently on the CPU.
	Running
	// Blocked: sleeping on I/O, a wait(), or another event.
	Blocked
	// Stopped: stopped by SIGSTOP or a ptrace trap; runnable again
	// only after SIGCONT / PTRACE_CONT.
	Stopped
	// Zombie: exited, waiting for the parent to reap it.
	Zombie
	// Reaped: fully gone.
	Reaped
)

func (s State) String() string {
	switch s {
	case Embryo:
		return "embryo"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Stopped:
		return "stopped"
	case Zombie:
		return "zombie"
	case Reaped:
		return "reaped"
	default:
		return "invalid"
	}
}

// Signal numbers used by the simulation.
type Signal int

const (
	SIGCHLD Signal = 17
	SIGCONT Signal = 18
	SIGSTOP Signal = 19
	SIGTRAP Signal = 5
	SIGKILL Signal = 9
	SIGSEGV Signal = 11
)

func (s Signal) String() string {
	switch s {
	case SIGCHLD:
		return "SIGCHLD"
	case SIGCONT:
		return "SIGCONT"
	case SIGSTOP:
		return "SIGSTOP"
	case SIGTRAP:
		return "SIGTRAP"
	case SIGKILL:
		return "SIGKILL"
	case SIGSEGV:
		return "SIGSEGV"
	default:
		return fmt.Sprintf("SIG(%d)", int(s))
	}
}

// MinNice and MaxNice bound the nice range (Linux convention:
// -20 is the highest priority, 19 the lowest).
const (
	MinNice = -20
	MaxNice = 19
)

// DebugRegs models the x86 debug registers the thrashing attack
// programs through ptrace: DR0 holds a linear address and DR7 the
// enable/condition bits. We model a single enabled watchpoint.
type DebugRegs struct {
	DR0     uint64 // watched linear address
	DR7     uint64 // non-zero enables the watchpoint
	OnWrite bool   // condition: break on write (else on any access)
}

// Enabled reports whether the watchpoint is armed.
func (d DebugRegs) Enabled() bool { return d.DR7 != 0 }

// Matches reports whether an access at addr (write flag w) triggers
// the watchpoint. Real hardware compares within the watched span; the
// simulation watches a page-granularity address already, so equality
// suffices.
func (d DebugRegs) Matches(addr uint64, write bool) bool {
	if !d.Enabled() || d.DR0 != addr {
		return false
	}
	if d.OnWrite && !write {
		return false
	}
	return true
}

// Proc is the simulated task_struct.
type Proc struct {
	PID  PID
	TGID PID // equal to PID for a process leader; leader's PID for threads
	Name string

	Parent   *Proc
	Children []*Proc

	State    State
	ExitCode int
	nice     int

	// Space is the task's address space. Threads share the leader's.
	Space *mem.Space

	// Pending is the FIFO of undelivered signals.
	Pending []Signal

	// Ptrace linkage: Tracer is the attached tracing task; debug
	// registers belong to the tracee and are programmed by the
	// tracer via POKEUSER.
	Tracer *Proc
	Debug  DebugRegs

	// SchedData and KernelData are opaque per-task slots owned by the
	// scheduler and the kernel respectively.
	SchedData  any
	KernelData any

	// Env is the per-process environment. The library attacks use
	// LD_PRELOAD exactly as the paper does. It is nil until a variable
	// is set, so read it directly and write it through Setenv.
	Env map[string]string
}

// New creates a task in the Embryo state.
func New(pid PID, name string, parent *Proc) *Proc {
	p := &Proc{
		PID:   pid,
		TGID:  pid,
		Name:  name,
		State: Embryo,
	}
	if parent != nil {
		p.Parent = parent
		parent.Children = append(parent.Children, p)
		// Children inherit the parent's environment (copied, so a
		// per-victim LD_PRELOAD does not leak to siblings).
		if len(parent.Env) > 0 {
			p.Env = maps.Clone(parent.Env)
		}
	}
	return p
}

// Setenv sets an environment variable, making the environment at the
// first.
func (p *Proc) Setenv(key, value string) {
	if p.Env == nil {
		p.Env = make(map[string]string)
	}
	p.Env[key] = value
}

// IsThread reports whether the task is a non-leader thread.
func (p *Proc) IsThread() bool { return p.TGID != p.PID }

// Nice returns the task's nice value.
func (p *Proc) Nice() int { return p.nice }

// SetNice clamps and stores the nice value.
func (p *Proc) SetNice(n int) {
	if n < MinNice {
		n = MinNice
	}
	if n > MaxNice {
		n = MaxNice
	}
	p.nice = n
}

// Runnable reports whether the scheduler may pick this task.
func (p *Proc) Runnable() bool { return p.State == Ready }

// Alive reports whether the task has not yet exited.
func (p *Proc) Alive() bool {
	return p.State != Zombie && p.State != Reaped
}

// PushSignal queues a signal for delivery.
func (p *Proc) PushSignal(s Signal) { p.Pending = append(p.Pending, s) }

// PopSignal dequeues the oldest pending signal.
func (p *Proc) PopSignal() (Signal, bool) {
	if len(p.Pending) == 0 {
		return 0, false
	}
	s := p.Pending[0]
	p.Pending = p.Pending[1:]
	return s, true
}

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string {
	return fmt.Sprintf("%s[%d]", p.Name, p.PID)
}

// RemoveChild unlinks a reaped child from this task's Children list.
// Keeping the list pruned bounds wait-scan cost under fork storms.
func (p *Proc) RemoveChild(c *Proc) {
	for i, q := range p.Children {
		if q == c {
			p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
			return
		}
	}
}

// Table allocates PIDs and tracks live tasks.
type Table struct {
	next  PID
	tasks map[PID]*Proc
}

// NewTable returns an empty table; PIDs start at 1 (init).
func NewTable() *Table {
	return &Table{next: 1, tasks: make(map[PID]*Proc)}
}

// Create allocates the next PID and registers a new task.
func (t *Table) Create(name string, parent *Proc) *Proc {
	p := New(t.next, name, parent)
	t.tasks[p.PID] = p
	t.next++
	return p
}

// Get looks up a task by PID.
func (t *Table) Get(pid PID) (*Proc, bool) {
	p, ok := t.tasks[pid]
	return p, ok
}

// All returns registered tasks in ascending PID order (a copy).
func (t *Table) All() []*Proc {
	out := make([]*Proc, 0, len(t.tasks))
	for _, p := range t.tasks {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// Find returns the live task named name with the lowest PID, the one
// a walk of All would meet first, without building that list.
func (t *Table) Find(name string) (*Proc, bool) {
	var found *Proc
	//simlint:unordered-ok a minimum by PID; the visit order cannot change it
	for _, p := range t.tasks {
		if p.Name == name && p.Alive() && (found == nil || p.PID < found.PID) {
			found = p
		}
	}
	return found, found != nil
}

// Len reports the number of registered tasks.
func (t *Table) Len() int { return len(t.tasks) }

// Remove forgets a reaped task.
func (t *Table) Remove(pid PID) {
	delete(t.tasks, pid)
}

// Clone returns an independent deep copy of the table and every
// registered task, plus the old→new task mapping so callers can
// re-point their own references (scheduler queues, ptrace links,
// address spaces). SchedData/KernelData slots are copied by reference
// value only when nil; non-nil slots are left nil for their owning
// subsystem's clone to rebuild, since proc cannot deep-copy opaque
// state.
func (t *Table) Clone() (*Table, map[*Proc]*Proc) {
	ct := &Table{next: t.next, tasks: make(map[PID]*Proc, len(t.tasks))}
	pmap := make(map[*Proc]*Proc, len(t.tasks))
	//simlint:unordered-ok deep copy into a map keyed identically; linkage below resolves via pmap, not iteration order
	for pid, p := range t.tasks {
		cp := &Proc{
			PID:      p.PID,
			TGID:     p.TGID,
			Name:     p.Name,
			State:    p.State,
			ExitCode: p.ExitCode,
			nice:     p.nice,
			Debug:    p.Debug,
		}
		if p.Pending != nil {
			cp.Pending = append([]Signal(nil), p.Pending...)
		}
		if p.Env != nil {
			cp.Env = make(map[string]string, len(p.Env))
			//simlint:unordered-ok deep copy into a map keyed identically
			for k, v := range p.Env {
				cp.Env[k] = v
			}
		}
		ct.tasks[pid] = cp
		pmap[p] = cp
	}
	// Second pass: re-link the tree and ptrace edges through the
	// mapping. A parent/tracer outside the table (already reaped and
	// removed) keeps pointing at the old object only if unmapped —
	// preserve it as-is so diagnostics stay truthful.
	//simlint:unordered-ok linkage pass; each task's edges are rewritten independently of visit order
	for p, cp := range pmap {
		if p.Parent != nil {
			if np, ok := pmap[p.Parent]; ok {
				cp.Parent = np
			} else {
				cp.Parent = p.Parent
			}
		}
		if p.Tracer != nil {
			if np, ok := pmap[p.Tracer]; ok {
				cp.Tracer = np
			} else {
				cp.Tracer = p.Tracer
			}
		}
		if len(p.Children) > 0 {
			cp.Children = make([]*Proc, len(p.Children))
			for i, c := range p.Children {
				if nc, ok := pmap[c]; ok {
					cp.Children[i] = nc
				} else {
					cp.Children[i] = c
				}
			}
		}
	}
	return ct, pmap
}
