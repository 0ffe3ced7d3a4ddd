package attacks

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// pollInterval is how often runtime attack processes re-check for
// their victim, in virtual time (2 ms).
func pollInterval(freq sim.Hz) sim.Cycles { return sim.Cycles(uint64(freq) / 500) }

// waitForVictim blocks an attack process until the victim appears,
// returning false if the machine looks victim-less for too long.
func waitForVictim(ctx guest.Context, name string, freq sim.Hz) bool {
	for i := 0; i < 5000; i++ {
		if _, ok := ctx.FindProcess(name); ok {
			return true
		}
		ctx.Sleep(pollInterval(freq))
	}
	return false
}

// --- 4. Process scheduling attack (Section IV-B1, Figs. 7 & 8) ---

// SchedulingAttack runs the paper's "Fork" program concurrently with
// the victim: a cycle of fork, wait for the no-op child to exit, and
// repeat. Every cycle relinquishes the CPU mid-jiffy, so under
// tick-sampled accounting the victim — current whenever the timer
// fires — absorbs whole ticks that the attacker partly used. Raising
// the attacker's priority (lower nice, needs root) tightens the
// interleaving and increases the overlap with the victim's run,
// which is what produces Fig. 7's gradient.
type SchedulingAttack struct {
	// Nice is the attacker's priority (0, -5, -10, -15, -20 in the
	// paper's sweep).
	Nice int
	// Forks is the total fork count; the paper uses 2^21, we default
	// to 2^19 to keep host run time reasonable.
	Forks uint64
}

// DefaultSchedulingForks is 2^19.
const DefaultSchedulingForks = 1 << 19

// NewSchedulingAttack builds the fork-storm attack at the given nice
// value. forks == 0 selects the default count.
func NewSchedulingAttack(nice int, forks uint64) SchedulingAttack {
	if forks == 0 {
		forks = DefaultSchedulingForks
	}
	return SchedulingAttack{Nice: nice, Forks: forks}
}

func (a SchedulingAttack) Key() string     { return "sched" }
func (a SchedulingAttack) Name() string    { return "Process Scheduling Attack" }
func (a SchedulingAttack) Phase() string   { return "runtime" }
func (a SchedulingAttack) Targets() string { return "utime" }

// AttackerProcName is the storm process's name (the paper calls the
// program "Fork").
const AttackerProcName = "Fork"

// Arm implements Attack: it spawns the Fork process, which waits for
// the victim, raises its own priority, and runs the storm until its
// fork budget is spent or the victim exits.
func (a SchedulingAttack) Arm(s *Setup) error {
	freq := s.M.Clock().Freq()
	victim := s.VictimName
	nice := a.Nice
	forks := a.Forks
	p, err := s.M.Spawn(kernel.SpawnConfig{
		Name:    AttackerProcName,
		Content: "fork-storm attack v1",
		Body: func(ctx guest.Context) {
			if !waitForVictim(ctx, victim, freq) {
				return
			}
			if nice != 0 {
				ctx.SetNice(nice) // requires root, per the paper
			}
			for i := uint64(0); i < forks; i++ {
				ctx.Fork("fork-child", func(c guest.Context) {
					// The child performs no operation but exits.
				})
				for {
					res, ok := ctx.Wait()
					if !ok || !res.Stopped {
						break
					}
				}
				// Periodically check whether the victim is done;
				// the storm is pointless afterwards.
				if i%512 == 511 {
					if _, ok := ctx.FindProcess(victim); !ok {
						return
					}
				}
			}
		},
	})
	if p != nil {
		s.Spawned = append(s.Spawned, p)
	}
	return err
}

// --- 5. Execution thrashing attack (Section IV-B2, Fig. 9) ---

// ThrashingAttack ptrace-attaches to the victim, programs debug
// registers DR0/DR7 with a hot address, and then continuously
// resumes the victim and waits for the next watchpoint stop. Every
// hit costs the victim a debug exception, signal handling, and two
// context switches — system time billed to the victim.
type ThrashingAttack struct{}

// NewThrashingAttack builds the thrashing attack, which watches the
// victim's published hot variable.
func NewThrashingAttack() ThrashingAttack { return ThrashingAttack{} }

func (a ThrashingAttack) Key() string     { return "thrash" }
func (a ThrashingAttack) Name() string    { return "Execution Thrashing Attack" }
func (a ThrashingAttack) Phase() string   { return "runtime" }
func (a ThrashingAttack) Targets() string { return "stime" }

// Arm implements Attack.
func (a ThrashingAttack) Arm(s *Setup) error {
	freq := s.M.Clock().Freq()
	victim := s.VictimName
	addr := s.VictimHotAddr
	if addr == 0 {
		return fmt.Errorf("thrashing attack: no watch address for victim %q", victim)
	}
	p, err := s.M.Spawn(kernel.SpawnConfig{
		Name:    "tracer",
		Content: "ptrace thrash attack v1",
		Body: func(ctx guest.Context) {
			if !waitForVictim(ctx, victim, freq) {
				return
			}
			pid, ok := ctx.FindProcess(victim)
			if !ok {
				return
			}
			if err := ctx.Ptrace(guest.PtraceAttach, pid, 0, 0); err != nil {
				return
			}
			// Consume the attach stop, then arm DR0/DR7.
			ctx.Wait()
			ctx.Ptrace(guest.PtracePokeUser, pid, guest.DR0, addr)
			ctx.Ptrace(guest.PtracePokeUser, pid, guest.DR7, 1)
			if err := ctx.Ptrace(guest.PtraceCont, pid, 0, 0); err != nil {
				return
			}
			for {
				res, ok := ctx.Wait()
				if !ok {
					return
				}
				if !res.Stopped {
					return // victim exited
				}
				if err := ctx.Ptrace(guest.PtraceCont, pid, 0, 0); err != nil {
					return
				}
			}
		},
	})
	if p != nil {
		s.Spawned = append(s.Spawned, p)
	}
	return err
}

// --- 6. Interrupt flooding attack (Section IV-B3, Fig. 10) ---

// InterruptFloodAttack floods the host NIC with junk IP packets from
// a second machine; every packet's receive interrupt handler runs at
// the expense of whichever task is current — almost always the
// victim on a dedicated platform.
type InterruptFloodAttack struct {
	// PacketsPerSecond is the flood rate; zero selects 40k pps
	// (a saturated 100 Mb/s link of small frames, 2008-era).
	PacketsPerSecond uint64
}

// NewInterruptFloodAttack builds the flood at the given rate.
func NewInterruptFloodAttack(pps uint64) InterruptFloodAttack {
	if pps == 0 {
		pps = 40_000
	}
	return InterruptFloodAttack{PacketsPerSecond: pps}
}

func (a InterruptFloodAttack) Key() string     { return "irqflood" }
func (a InterruptFloodAttack) Name() string    { return "Interrupt Flooding Attack" }
func (a InterruptFloodAttack) Phase() string   { return "runtime" }
func (a InterruptFloodAttack) Targets() string { return "stime" }

// Arm implements Attack: the flood source is outside the host, so it
// simply starts at boot and runs for the whole experiment.
func (a InterruptFloodAttack) Arm(s *Setup) error {
	s.M.NIC().StartFlood(a.PacketsPerSecond)
	return nil
}

// --- 7. Exception flooding attack (Section IV-B4, Fig. 11) ---

// ExceptionFloodAttack runs a memory hog that over-commits physical
// memory (the paper requests more than 2 GiB against a smaller RAM)
// and keeps re-dirtying it, evicting the victim's pages so the
// victim's own accesses major-fault; the fault handler time is the
// victim's system time.
type ExceptionFloodAttack struct {
	// FootprintBytes is the hog's working set; zero selects 2 GiB.
	FootprintBytes uint64
}

// NewExceptionFloodAttack builds the hog; footprint == 0 selects the
// paper's >2 GiB request.
func NewExceptionFloodAttack(footprint uint64) ExceptionFloodAttack {
	if footprint == 0 {
		footprint = 2 << 30
	}
	return ExceptionFloodAttack{FootprintBytes: footprint}
}

func (a ExceptionFloodAttack) Key() string     { return "excflood" }
func (a ExceptionFloodAttack) Name() string    { return "Exception Flooding Attack" }
func (a ExceptionFloodAttack) Phase() string   { return "runtime" }
func (a ExceptionFloodAttack) Targets() string { return "stime" }

// Arm implements Attack.
func (a ExceptionFloodAttack) Arm(s *Setup) error {
	freq := s.M.Clock().Freq()
	victim := s.VictimName
	pages := a.FootprintBytes / mem.DefaultPageSize
	p, err := s.M.Spawn(kernel.SpawnConfig{
		Name:    "memhog",
		Content: "memory exhaustion attack v1",
		Body: func(ctx guest.Context) {
			if !waitForVictim(ctx, victim, freq) {
				return
			}
			base := ctx.Call1("malloc", a.FootprintBytes)
			// Continuously write data and read it back later (the
			// paper's loop), forcing allocation and re-allocation.
			for sweep := 0; ; sweep++ {
				for pg := uint64(0); pg < pages; pg += 8 {
					// Touch a block of pages per request batch to
					// bound simulation overhead; stride covers the
					// whole footprint each sweep.
					for b := uint64(0); b < 8 && pg+b < pages; b++ {
						ctx.Store(base + (pg+b)*mem.DefaultPageSize)
					}
					ctx.Compute(2000)
					if (pg/8)%64 == 63 {
						if _, ok := ctx.FindProcess(victim); !ok {
							return
						}
					}
				}
				for pg := uint64(0); pg < pages; pg += 64 {
					ctx.Load(base + pg*mem.DefaultPageSize)
					if _, ok := ctx.FindProcess(victim); !ok {
						return
					}
				}
			}
		},
	})
	if p != nil {
		s.Spawned = append(s.Spawned, p)
	}
	return err
}
