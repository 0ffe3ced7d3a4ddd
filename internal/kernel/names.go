package kernel

import "repro/internal/sim"

// The syscall namespace is one closed table, numbered as a real
// kernel's syscall table is: the kernel charges a class and rolls its
// fault by number, and a name is parsed once where it enters — a
// guest's Syscall when it posts, a FaultSpec entry when New arms it.
// An unknown name fails loudly (Syscall panics, FaultSpec.Validate
// returns an error), and KnownSyscallNames lets upper layers (CLI flag
// validation, the simlint syscallname analyzer) reject it up front.

// sysClass numbers a syscall class: its index in syscallTable.
type sysClass uint8

// The syscall classes, in name order.
const (
	sysBrk sysClass = iota
	sysClose
	sysFutex
	sysGetrusage
	sysGettime
	sysOpen
	sysRead
	sysSendto
	sysStat
	sysWrite
	numSysClasses
)

// syscallTable holds each class's name and its service time in
// microseconds of kernel work.
var syscallTable = [numSysClasses]struct {
	name string
	us   sim.Cycles
}{
	sysBrk:       {"brk", 2},
	sysClose:     {"close", 1},
	sysFutex:     {"futex", 1},
	sysGetrusage: {"getrusage", 1},
	sysGettime:   {"gettime", 1},
	sysOpen:      {"open", 3},
	sysRead:      {"read", 2},
	sysSendto:    {"sendto", 2},
	sysStat:      {"stat", 2},
	sysWrite:     {"write", 2},
}

// lookupSyscall parses a class name.
func lookupSyscall(name string) (sysClass, bool) {
	for i := range syscallTable {
		if syscallTable[i].name == name {
			return sysClass(i), true
		}
	}
	return 0, false
}

// KnownSyscallNames returns the closed set of syscall-class names in
// sorted order. The caller owns the returned slice.
func KnownSyscallNames() []string {
	names := make([]string, numSysClasses)
	for i := range syscallTable {
		names[i] = syscallTable[i].name
	}
	return names
}

// IsKnownSyscall reports whether name is a member of the syscall
// namespace.
func IsKnownSyscall(name string) bool {
	_, ok := lookupSyscall(name)
	return ok
}
