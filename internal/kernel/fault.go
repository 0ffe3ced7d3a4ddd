package kernel

import (
	"fmt"
	"strings"

	"repro/internal/guest"
	"repro/internal/sim"
)

// PPMScale is the denominator of SyscallFault probabilities: one
// million, so ProbPPM is parts-per-million.
const PPMScale = 1_000_000

// SyscallFault arms error injection for one syscall class: each
// request of that class independently fails with the given errno at
// ProbPPM parts-per-million probability. A zero ProbPPM entry is
// inert — it is never installed, draws nothing from the fault stream,
// and leaves the machine byte-identical to an unfaulted one.
type SyscallFault struct {
	Name    string
	Errno   guest.Errno
	ProbPPM uint32
}

// FaultSpec is the machine's chaos configuration: which syscalls can
// fail and how often. Draws come from a dedicated splitmix64 stream
// (never the machine's main rng), so arming faults perturbs only the
// faulted requests and runs replay bit-for-bit for a given Seed.
type FaultSpec struct {
	// Seed seeds the fault stream; zero derives one from the machine
	// seed so distinct machines draw distinct fault histories.
	Seed int64
	// Syscalls lists the armed fault points.
	Syscalls []SyscallFault
}

// Validate reports the first malformed entry: a name outside the
// syscall namespace, an unknown errno, or a probability past
// PPMScale. Config.Validate calls it, so cluster.New and
// experiments.Run turn a bad spec into an error before New would
// panic. The name check matters most: a typo'd entry would otherwise
// arm nothing and let a chaos run report a clean bill that tested
// nothing.
func (s *FaultSpec) Validate() error {
	if s == nil {
		return nil
	}
	for _, sf := range s.Syscalls {
		if !IsKnownSyscall(sf.Name) {
			return fmt.Errorf("fault %q: unknown syscall (known: %s)", sf.Name, strings.Join(KnownSyscallNames(), ", "))
		}
		if sf.ProbPPM > PPMScale {
			return fmt.Errorf("fault %q: probability %d ppm exceeds %d", sf.Name, sf.ProbPPM, PPMScale)
		}
		switch sf.Errno {
		case guest.EIO, guest.EAGAIN, guest.ENOMEM:
		default:
			return fmt.Errorf("fault %q: unknown errno %d (want EIO/EAGAIN/ENOMEM)", sf.Name, sf.Errno)
		}
	}
	return nil
}

// initFaults arms the live entries of a spec New has validated, each
// at its class number. A machine with none carries no fault table.
func (m *Machine) initFaults(spec *FaultSpec) {
	if spec == nil {
		return
	}
	for _, sf := range spec.Syscalls {
		if sf.ProbPPM == 0 {
			continue
		}
		if m.faults == nil {
			m.faults = new([numSysClasses]SyscallFault)
		}
		sys, _ := lookupSyscall(sf.Name)
		m.faults[sys] = sf
	}
	if m.faults == nil {
		return
	}
	seed := spec.Seed
	if seed == 0 {
		// Derive from the machine seed with an offset so the fault
		// stream never aliases the machine's own rng stream.
		seed = m.cfg.Seed*0x9e3779b9 + 0x7f4a7c15
	}
	m.faultRNG = sim.NewRand(seed)
}

// injectFault rolls the fault die for one request of syscall class
// sys. Classes with no armed entry draw nothing, so an unfaulted
// machine's histories are untouched.
func (m *Machine) injectFault(sys sysClass) (guest.Errno, bool) {
	if m.faults == nil {
		return 0, false
	}
	sf := &m.faults[sys]
	if sf.ProbPPM == 0 {
		return 0, false
	}
	if uint32(m.faultRNG.Int63n(PPMScale)) >= sf.ProbPPM {
		return 0, false
	}
	m.faultsInjected++
	return sf.Errno, true
}

// FaultsInjected reports how many syscalls this machine has failed
// through its FaultSpec.
func (m *Machine) FaultsInjected() uint64 { return m.faultsInjected }
