// Package kernel is a fixture twin of the real kernel's SyscallFault:
// the analyzer recognizes the type by name and package-path tail, but
// validates its Name against the REAL kernel.KnownSyscallNames set
// (brk … write).
package kernel

type SyscallFault struct {
	Name    string
	Errno   int
	ProbPPM uint32
}

func use() {
	_ = SyscallFault{Name: "sendto"}
	_ = SyscallFault{Name: "reed"} // want `unknown syscall name "reed" in SyscallFault.Name`
	_ = SyscallFault{"reed", 0, 0} // want `unknown syscall name "reed" in SyscallFault.Name`
	//simlint:syscall-ok the rejection of this typo is the property under test
	_ = SyscallFault{Name: "frobnicate"}
}
