// Package kernel is a fixture twin of the real kernel's stringly
// syscall surface: the analyzer recognizes serviceTime, injectFault,
// SyscallFault, and the cost table by name and package-path tail, but
// validates the strings against the REAL kernel.KnownSyscallNames
// set (brk … write).
package kernel

type SyscallFault struct {
	Name    string
	Errno   int
	ProbPPM uint32
}

var syscallServiceUs = map[string]int64{
	"read":   3,
	"sendot": 4, // want `unknown syscall name "sendot" in the syscall cost table`
}

func serviceTime(name string) int64 { return syscallServiceUs[name] }

// serviceTimes mirrors the real kernel's per-machine table, resolved
// by name once.
type serviceTimes struct{ gettime, read int64 }

func resolveServiceTimes() serviceTimes {
	return serviceTimes{
		gettime: serviceTime("gettime"),
		read:    serviceTime("raed"), // want `unknown syscall name "raed" in serviceTime`
	}
}

func injectFault(name string, f SyscallFault) {}

func use(dynamic string) {
	serviceTime("gettime")
	serviceTime("gettimeofday") // want `unknown syscall name "gettimeofday" in serviceTime`
	serviceTime(dynamic)        // dynamic name: left to runtime validation
	injectFault("sendto", SyscallFault{Name: "sendto"})
	injectFault("sendot", SyscallFault{}) // want `unknown syscall name "sendot" in injectFault`
	_ = SyscallFault{Name: "reed"}        // want `unknown syscall name "reed" in SyscallFault.Name`
	_ = SyscallFault{"reed", 0, 0}        // want `unknown syscall name "reed" in SyscallFault.Name`
	//simlint:syscall-ok probing the default-cost fallback for names off the table
	serviceTime("frobnicate")
}
