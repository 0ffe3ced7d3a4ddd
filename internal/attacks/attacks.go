// Package attacks implements the seven CPU-time inflation attacks of
// Section IV against the simulated kernel. Every attack honours the
// paper's threat model: no kernel tampering, no modification of the
// user's submitted binary, no corruption of program output — the
// server only manipulates the environment the program runs in.
package attacks

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/proc"
	"repro/internal/shell"
	"repro/internal/sim"
)

// Setup is what an attack may manipulate before the victim job
// launches: the machine (spawn attack processes, start floods,
// install libraries), the shell configuration (inject launch code),
// and the victim job's environment (LD_PRELOAD).
type Setup struct {
	M *kernel.Machine
	// Shell is the victim's launch shell configuration; launch-time
	// attacks tamper with it.
	Shell *shell.Config
	// JobEnv is merged into the victim job's environment.
	JobEnv map[string]string
	// VictimName is the victim process's name, used by runtime
	// attacks to find their target.
	VictimName string
	// VictimHotAddr is a frequently accessed victim address (known
	// to the provider who can profile or read the submitted binary);
	// the thrashing attack watches it.
	VictimHotAddr uint64
	// Spawned records the attack's own processes, so experiments can
	// bill the attacker side (Fig. 7/8's "Fork" bars).
	Spawned []*proc.Proc
}

// Attack is one CPU-time inflation technique.
type Attack interface {
	// Key is a short stable identifier ("shell", "ctor", ...).
	Key() string
	// Name is the paper's name for the attack.
	Name() string
	// Phase is "launch" or "runtime" (Fig. 1's taxonomy).
	Phase() string
	// Targets is "utime" or "stime", the component the attack
	// inflates (Section V-C).
	Targets() string
	// Arm installs the attack.
	Arm(s *Setup) error
}

// All returns one default-strength instance of every attack, in the
// paper's presentation order.
func All(freq sim.Hz) []Attack {
	return []Attack{
		NewShellAttack(freq),
		NewLibraryCtorAttack(freq),
		NewLibrarySubstitutionAttack(freq),
		NewSchedulingAttack(-20, 0),
		NewThrashingAttack(),
		NewInterruptFloodAttack(0),
		NewExceptionFloodAttack(0),
	}
}

// attackLoopCycles is the paper's injected payload: a loop of about
// 2^34 iterations, measured at roughly 34 seconds of user time on the
// 2.53 GHz testbed. We charge the equivalent cycles directly.
func attackLoopCycles(freq sim.Hz) sim.Cycles {
	return sim.Cycles(34 * float64(freq))
}

// --- 1. Shell attack (Section IV-A1, Fig. 4) ---

// ShellAttack patches the shell to run a CPU-bound payload between
// fork() and execve(): the paper modifies bash's
// execute_disk_command() between make_child() and shell_execve().
// The payload's time is billed to the newborn victim process.
type ShellAttack struct {
	// PayloadCycles is the injected loop's cost.
	PayloadCycles sim.Cycles
}

// NewShellAttack returns the paper-strength shell attack (~34 s).
func NewShellAttack(freq sim.Hz) ShellAttack {
	return ShellAttack{PayloadCycles: attackLoopCycles(freq)}
}

func (a ShellAttack) Key() string     { return "shell" }
func (a ShellAttack) Name() string    { return "Shell Attack" }
func (a ShellAttack) Phase() string   { return "launch" }
func (a ShellAttack) Targets() string { return "utime" }

// Arm implements Attack.
func (a ShellAttack) Arm(s *Setup) error {
	s.Shell.Content = shell.StockContent + " PATCHED:execute_disk_command 2^34-loop"
	s.Shell.Inject = func(c guest.Context) {
		c.Compute(a.PayloadCycles)
	}
	return nil
}

// --- 2. Shared-library constructor attack (Section IV-A2, Fig. 5) ---

// EvilLibName is the attack shared object's name.
const EvilLibName = "libattack.so"

// LibraryCtorAttack preloads a shared object whose constructor
// (__attribute__((constructor)) test_init_t) runs the payload before
// main — loaded via LD_PRELOAD exactly as in the paper.
type LibraryCtorAttack struct {
	PayloadCycles sim.Cycles
	// WithDestructor also runs the payload at unload (the paper
	// implements only the constructor; "the destructor is similar").
	WithDestructor bool
}

// NewLibraryCtorAttack returns the paper-strength constructor attack.
func NewLibraryCtorAttack(freq sim.Hz) LibraryCtorAttack {
	return LibraryCtorAttack{PayloadCycles: attackLoopCycles(freq)}
}

func (a LibraryCtorAttack) Key() string     { return "ctor" }
func (a LibraryCtorAttack) Name() string    { return "Shared Library Constructor Attack" }
func (a LibraryCtorAttack) Phase() string   { return "launch" }
func (a LibraryCtorAttack) Targets() string { return "utime" }

// Arm implements Attack.
func (a LibraryCtorAttack) Arm(s *Setup) error {
	evil := &lib.Library{
		Name:    EvilLibName,
		Content: "attack ctor/dtor payload v1",
		Constructor: func(c guest.Context) {
			c.Compute(a.PayloadCycles)
		},
	}
	if a.WithDestructor {
		evil.Destructor = func(c guest.Context) {
			c.Compute(a.PayloadCycles)
		}
	}
	s.M.Registry().Install(evil)
	s.JobEnv[lib.PreloadEnv] = EvilLibName
	return nil
}

// --- 3. Library function substitution attack (Section IV-A2, Fig. 6) ---

// LibrarySubstitutionAttack preloads fake malloc() and sqrt() that
// first run attack code and then call the genuine implementation, so
// the inflation multiplies with the victim's own call frequency.
type LibrarySubstitutionAttack struct {
	// PerCallCycles is the attack cost added to every interposed
	// call (the paper's in-function loop).
	PerCallCycles sim.Cycles
}

// NewLibrarySubstitutionAttack returns the default-strength
// substitution attack: ~0.5 ms of attack code per call, so a
// libm-heavy victim like Whetstone inflates by tens of seconds.
func NewLibrarySubstitutionAttack(freq sim.Hz) LibrarySubstitutionAttack {
	return LibrarySubstitutionAttack{PerCallCycles: sim.Cycles(uint64(freq) / 2000)}
}

func (a LibrarySubstitutionAttack) Key() string     { return "subst" }
func (a LibrarySubstitutionAttack) Name() string    { return "Library Function Substitution Attack" }
func (a LibrarySubstitutionAttack) Phase() string   { return "launch" }
func (a LibrarySubstitutionAttack) Targets() string { return "utime" }

// Arm implements Attack.
func (a LibrarySubstitutionAttack) Arm(s *Setup) error {
	reg := s.M.Registry()
	libc, ok := reg.Get(lib.LibcName)
	if !ok {
		return fmt.Errorf("substitution attack: %s not installed", lib.LibcName)
	}
	libm, ok := reg.Get(lib.LibmName)
	if !ok {
		return fmt.Errorf("substitution attack: %s not installed", lib.LibmName)
	}
	genuineMalloc := libc.Funcs["malloc"]
	genuineSqrt := libm.Funcs["sqrt"]
	evil := &lib.Library{
		Name:    EvilLibName,
		Content: "attack malloc/sqrt interposer v1",
		Funcs: map[string]guest.LibFunc{
			"malloc": func(c guest.Context, args []uint64) uint64 {
				c.Compute(a.PerCallCycles)
				return genuineMalloc(c, args)
			},
			"sqrt": func(c guest.Context, args []uint64) uint64 {
				c.Compute(a.PerCallCycles)
				return genuineSqrt(c, args)
			},
		},
	}
	reg.Install(evil)
	s.JobEnv[lib.PreloadEnv] = EvilLibName
	return nil
}
