package experiments

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/sim"
)

// idleCtx stands in for the kernel: its posting methods post nothing,
// so a test can run a Step guest's activations by hand. A method the
// guests below do not call panics on the nil embedded Context.
type idleCtx struct {
	guest.Context
	rng *sim.Rand
}

func (*idleCtx) Compute(sim.Cycles)                         {}
func (*idleCtx) Store(uint64)                               {}
func (*idleCtx) Sleep(sim.Cycles)                           {}
func (*idleCtx) ClockNow() sim.Cycles                       { return 0 }
func (*idleCtx) NetSend(guest.Frame) (bool, error)          { return false, nil }
func (*idleCtx) NetRecv() (f guest.Frame, ok bool, e error) { return }
func (*idleCtx) NetRxWait(uint64) uint64                    { return 0 }
func (c *idleCtx) Rand() *sim.Rand                          { return c.rng }

// activations returns a function that runs six activations of *s, a
// live guest, with zero replies, counting them in *n. Six activations
// cover whole loops of every guest below (one to three activations
// long), so one allocating activation shows as at least one
// allocation per run.
func activations(t *testing.T, ctx guest.Context, s *guest.Step, n *int) func() {
	return func() {
		for range 6 {
			if *s = (*s)(ctx, guest.Resume{}); *s == nil {
				t.Fatal("the guest exited")
			}
			*n++
		}
	}
}

// TestForkLabActivationsAllocateNothing runs each fork-lab guest's
// activations by hand, as BuildForkLab binds it and again on a fork
// clone: no activation allocates, and the clone's activations advance
// the clone, not the original, which then runs as many activations to
// its exit as the clone did from the fork.
func TestForkLabActivationsAllocateNothing(t *testing.T) {
	const rounds = 4096
	ctx := &idleCtx{rng: sim.NewRand(1)}
	churn, churnFork := guest.Resumable(forkChurn{rounds: rounds, burst: 150_000, sleep: 90_000, pages: 40})
	sender, senderFork := guest.Resumable(forkSender{rounds: rounds, gap: 120_000})
	watcher, watcherFork := guest.Resumable(forkWatcher{rounds: rounds})
	for _, g := range []struct {
		name string
		step guest.Step
		fork guest.ForkFunc
	}{
		{"churn", churn, churnFork},
		{"sender", sender, senderFork},
		{"watcher", watcher, watcherFork},
	} {
		s, n := g.step, 0
		if allocs := testing.AllocsPerRun(100, activations(t, ctx, &s, &n)); allocs != 0 {
			t.Errorf("%s: six activations allocated %v times, want 0", g.name, allocs)
		}
		orig := s
		s, _ = g.fork()
		n = 0
		if allocs := testing.AllocsPerRun(100, activations(t, ctx, &s, &n)); allocs != 0 {
			t.Errorf("%s: six of a fork clone's activations allocated %v times, want 0", g.name, allocs)
		}
		if got, want := toExit(ctx, orig), n+toExit(ctx, s); got != want {
			t.Errorf("%s: after the fork the original ran %d activations to its exit, the clone %d: the clone's activations moved the original", g.name, got, want)
		}
	}
}

// toExit runs s with zero replies until it exits and returns how many
// activations that took.
func toExit(ctx guest.Context, s guest.Step) (n int) {
	for ; s != nil; n++ {
		s = s(ctx, guest.Resume{})
	}
	return n
}

// TestAckFlowGuestsAllocateNothing runs the ack-paced sender, the echo
// daemon and the flood generator by hand, as AckPacedSenderStep,
// AckEchoStep and floodBodyStep bind them: no activation allocates.
func TestAckFlowGuestsAllocateNothing(t *testing.T) {
	var stats AckFlowStats
	ctx := &idleCtx{rng: sim.NewRand(1)}
	for _, g := range []struct {
		name string
		step guest.Step
	}{
		{"ack sender", AckPacedSenderStep(AckFlowConfig{Peer: 2, Flow: 1, Frames: 1 << 20, PaceCycles: 1_000, TimeoutCycles: 50_000}, &stats)},
		{"echo daemon", AckEchoStep(1)},
		{"flood generator", floodBodyStep(sim.DefaultCPUHz, 40_000, 1<<20, guest.Frame{Dst: 2})},
	} {
		s, n := g.step, 0
		if allocs := testing.AllocsPerRun(100, activations(t, ctx, &s, &n)); allocs != 0 {
			t.Errorf("%s: six activations allocated %v times, want 0", g.name, allocs)
		}
	}
}
