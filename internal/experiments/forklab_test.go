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

func (*idleCtx) Compute(sim.Cycles)                {}
func (*idleCtx) Store(uint64)                      {}
func (*idleCtx) Sleep(sim.Cycles)                  {}
func (*idleCtx) NetSend(guest.Frame) (bool, error) { return false, nil }
func (*idleCtx) NetRxWait(uint64) uint64           { return 0 }
func (c *idleCtx) Rand() *sim.Rand                 { return c.rng }

// TestForkLabActivationsAllocateNothing runs each fork-lab guest's
// activations by hand, as BuildForkLab binds it and again on a fork
// clone: every guest returns continuations bound once, so no
// activation allocates, and the clone's continuations advance the
// clone, not the original.
func TestForkLabActivationsAllocateNothing(t *testing.T) {
	const rounds = 1 << 20
	churn := &forkChurn{rounds: rounds, burst: 150_000, sleep: 90_000, pages: 40}
	sender := &forkSender{rounds: rounds, gap: 120_000}
	watcher := &forkWatcher{rounds: rounds}
	churn.bind()
	sender.bind()
	watcher.bind()
	var ctx guest.Context = &idleCtx{rng: sim.NewRand(1)}
	for _, g := range []struct {
		name string
		step guest.Step
		fork guest.ForkFunc
		i    *int // the original's loop count
	}{
		{"churn", churn.loop, churn.fork, &churn.i},
		{"sender", sender.loop, sender.fork, &sender.i},
		{"watcher", watcher.loop, watcher.fork, &watcher.i},
	} {
		// Six activations cover whole loops of all three guests (three,
		// two and one activations long), so one allocating continuation
		// shows as at least one allocation per run.
		s := g.step
		activate := func() {
			for range 6 {
				s = s(ctx, guest.Resume{})
			}
		}
		if n := testing.AllocsPerRun(100, activate); n != 0 {
			t.Errorf("%s: six activations allocated %v times, want 0", g.name, n)
		}
		fk, err := g.fork(s)
		if err != nil {
			t.Fatalf("%s: fork: %v", g.name, err)
		}
		s = fk.Step
		i := *g.i
		if n := testing.AllocsPerRun(100, activate); n != 0 {
			t.Errorf("%s: six of a fork clone's activations allocated %v times, want 0", g.name, n)
		}
		if *g.i != i {
			t.Errorf("%s: the fork clone's activations moved the original from round %d to %d", g.name, i, *g.i)
		}
	}
}
