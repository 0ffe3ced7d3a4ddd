// The fork lab: a fully checkpointable micro-scenario for the
// shared-warmup campaign path. Every guest is a forkable flyweight
// state machine, so a fork-lab machine can be paused at any
// virtual-time barrier, snapshotted, and forked into variants —
// unlike the shell-launched workload scenarios, whose Body guests
// keep their state on coroutine stacks that a snapshot cannot copy.
// The scenario is dense in kernel mechanisms on purpose: a
// memory-churning compute loop (timer ticks, preemption, page faults,
// swap I/O), a paced sender drawing syscall-fault rolls, a blocked
// receiver consuming a background NIC flood. It backs the meterlab
// snapshot/resume verbs and the forked-campaign benchmark.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ForkLabSpec parameterises the fork-lab machine.
type ForkLabSpec struct {
	// Seed drives every random stream; zero selects 2010.
	Seed int64
	// Rounds is the churn guest's loop count — the knob that scales
	// total run length; zero selects 60.
	Rounds int
	// FloodPPS is the background NIC flood rate armed at build; zero
	// selects 40k packets/s.
	FloodPPS uint64
}

func (s ForkLabSpec) norm() ForkLabSpec {
	if s.Seed == 0 {
		s.Seed = 2010
	}
	if s.Rounds == 0 {
		s.Rounds = 60
	}
	if s.FloodPPS == 0 {
		s.FloodPPS = 40_000
	}
	return s
}

// DefaultForkLabWarmup is a mid-run checkpoint barrier for the
// default spec: every guest is live and mid-loop there.
const DefaultForkLabWarmup = sim.Cycles(3_000_000)

// Each fork-lab guest is a plain value that guest.Resumable binds: a
// snapshot copies it, and its activations allocate nothing.

// forkChurn alternates compute bursts, hot-page stores, and sleeps —
// the loop that drives timer ticks, preemption, faults, and swap.
type forkChurn struct {
	rounds int
	burst  sim.Cycles
	sleep  sim.Cycles
	pages  uint64
	i      int
	pc     uint8 // 0: top of the loop; 1: computed; 2: stored
}

func (g *forkChurn) Activate(ctx guest.Context, _ guest.Resume) bool {
	switch g.pc {
	case 0:
		if g.i >= g.rounds {
			return false
		}
		g.pc = 1
		ctx.Compute(g.burst)
	case 1:
		g.pc = 2
		ctx.Store(0x400000 + uint64(g.i)%g.pages*mem.DefaultPageSize)
	case 2:
		g.i++
		g.pc = 0
		ctx.Sleep(g.sleep)
	}
	return true
}

// forkSender transmits flow frames — drawing "sendto" fault rolls —
// with jittered pacing off the machine rng.
type forkSender struct {
	rounds int
	gap    sim.Cycles
	i      int
	fails  int
	sent   bool // the last post was a send, not a sleep
}

func (g *forkSender) Activate(ctx guest.Context, r guest.Resume) bool {
	if g.sent {
		if r.Err != nil {
			g.fails++
		}
		g.sent = false
		ctx.Sleep(ctx.Rand().Jitter(g.gap, g.gap/4+1))
		return true
	}
	if g.i >= g.rounds {
		return false
	}
	g.i++
	g.sent = true
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetSend(guest.Frame{Dst: 9, Flow: 7})
	return true
}

// forkWatcher blocks in NetRxWait consuming the NIC flood.
type forkWatcher struct {
	rounds int
	seen   uint64
	i      int
}

func (w *forkWatcher) Activate(ctx guest.Context, r guest.Resume) bool {
	if w.i > 0 {
		w.seen = r.Ret
	}
	if w.i >= w.rounds {
		return false
	}
	w.i++
	ctx.NetRxWait(w.seen)
	return true
}

// BuildForkLab constructs the fork-lab machine: tight physical memory
// for swap traffic, an armed sendto fault, three forkable guests, and
// the background flood. The machine is ready to Run, RunUntil, or
// hand to ForkedCampaign as its build function.
func BuildForkLab(spec ForkLabSpec) (*kernel.Machine, error) {
	s := spec.norm()
	m := kernel.New(kernel.Config{
		Seed:         s.Seed,
		CPUHz:        sim.DefaultCPUHz,
		PhysMemBytes: 24 * mem.DefaultPageSize,
		Faults: &kernel.FaultSpec{Syscalls: []kernel.SyscallFault{
			{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: 200_000},
		}},
	})
	churn, churnFork := guest.Resumable(forkChurn{rounds: s.Rounds, burst: 150_000, sleep: 90_000, pages: 40})
	sender, senderFork := guest.Resumable(forkSender{rounds: 50, gap: 120_000})
	watcher, watcherFork := guest.Resumable(forkWatcher{rounds: 30})
	specs := []kernel.SpawnConfig{
		{Name: "churn", Content: "forklab churn v1", Step: churn, Fork: churnFork},
		{Name: "sender", Content: "forklab sender v1", Nice: -5, Step: sender, Fork: senderFork},
		{Name: "watcher", Content: "forklab watcher v1", Step: watcher, Fork: watcherFork},
	}
	for _, sc := range specs {
		if _, err := m.Spawn(sc); err != nil {
			m.Shutdown()
			return nil, fmt.Errorf("forklab: spawn %s: %w", sc.Name, err)
		}
	}
	m.NIC().StartFlood(s.FloodPPS)
	return m, nil
}

// ForkLabOut is a finished fork-lab machine's deterministic outcome:
// a few headline counters for display plus the full digest the
// byte-identity oracle compares.
type ForkLabOut struct {
	Clock  sim.Cycles
	Faults uint64
	RxSeen uint64
	// Digest serialises everything observable — per-task stats and
	// usage under every billing scheme, machine counters, integrity
	// measurements — so equal histories compare as string equality.
	Digest string
}

// HarvestForkLab digests a finished fork-lab machine.
func HarvestForkLab(m *kernel.Machine) *ForkLabOut {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%d faults=%d rxdrop=%d nicrx=%d diskio=%d diskw=%d\n",
		m.Clock().Now(), m.FaultsInjected(), m.RxBufDropped(),
		m.NIC().Received(), m.Disk().IOs(), m.Disk().Writes())
	for _, ms := range m.Measurements() {
		fmt.Fprintf(&b, "task=%s pid=%d digest=%s stats=%+v\n", ms.Name, ms.PID, ms.Digest, m.Stats(ms.PID))
		for _, scheme := range Schemes {
			u, ok := m.UsageBy(scheme, ms.PID)
			fmt.Fprintf(&b, "task=%s %s ok=%v usage=%+v\n", ms.Name, scheme, ok, u)
		}
	}
	return &ForkLabOut{
		Clock:  m.Clock().Now(),
		Faults: m.FaultsInjected(),
		RxSeen: m.NIC().Received(),
		Digest: b.String(),
	}
}

// RunForkLabCampaign is the shared-warmup flood sweep: one fork-lab
// machine warms to the barrier, and its image forks into one variant
// per rate, each re-arming the background flood at rates[i] before
// running to completion. The results are byte-identical to building,
// warming, and perturbing each variant's machine from scratch — the
// warmup just isn't paid len(rates) times.
func RunForkLabCampaign(spec ForkLabSpec, warmup sim.Cycles, rates []uint64, parallelism int) ([]*ForkLabOut, error) {
	if warmup == 0 {
		warmup = DefaultForkLabWarmup
	}
	variants := make([]func(*kernel.Machine) (*ForkLabOut, error), len(rates))
	for i, pps := range rates {
		pps := pps
		variants[i] = func(m *kernel.Machine) (*ForkLabOut, error) {
			m.NIC().StartFlood(pps)
			if err := m.Run(); err != nil {
				return nil, err
			}
			return HarvestForkLab(m), nil
		}
	}
	return ForkedCampaign(func() (*kernel.Machine, error) { return BuildForkLab(spec) },
		warmup, parallelism, variants)
}
