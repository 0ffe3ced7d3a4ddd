package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/proc"
	"repro/internal/sim"
)

// churnGuest is a forkable flyweight guest exercising the compute /
// page-touch / sleep loop that drives timer ticks, preemption,
// faults, swap I/O, and writebacks.
type churnGuest struct {
	rounds int
	burst  sim.Cycles
	sleep  sim.Cycles
	pages  uint64
	i      int
}

func (g *churnGuest) run(ctx guest.Context, _ guest.Resume) guest.Step {
	if g.i >= g.rounds {
		return nil
	}
	ctx.Compute(g.burst)
	return g.afterCompute
}

func (g *churnGuest) afterCompute(ctx guest.Context, _ guest.Resume) guest.Step {
	ctx.Store(0x400000 + uint64(g.i)%g.pages*mem.DefaultPageSize)
	return g.afterStore
}

func (g *churnGuest) afterStore(ctx guest.Context, _ guest.Resume) guest.Step {
	g.i++
	ctx.Sleep(g.sleep)
	return g.run
}

func (g *churnGuest) fork(cur guest.Step) (guest.Forked, error) {
	c := *g
	s, ok := guest.RebindStep(cur,
		[]guest.Step{g.run, g.afterCompute, g.afterStore},
		[]guest.Step{c.run, c.afterCompute, c.afterStore})
	if !ok {
		return guest.Forked{}, fmt.Errorf("churnGuest: unknown continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
}

// senderGuest transmits flow frames (drawing "sendto" fault rolls)
// with jittered pacing off the machine rng.
type senderGuest struct {
	rounds int
	gap    sim.Cycles
	i      int
	fails  int
}

func (g *senderGuest) run(ctx guest.Context, _ guest.Resume) guest.Step {
	if g.i >= g.rounds {
		return nil
	}
	g.i++
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume and is counted in fails there
	ctx.NetSend(guest.Frame{Dst: 9, Flow: 7})
	return g.afterSend
}

func (g *senderGuest) afterSend(ctx guest.Context, r guest.Resume) guest.Step {
	if r.Err != nil {
		g.fails++
	}
	ctx.Sleep(ctx.Rand().Jitter(g.gap, g.gap/4+1))
	return g.run
}

func (g *senderGuest) fork(cur guest.Step) (guest.Forked, error) {
	c := *g
	s, ok := guest.RebindStep(cur,
		[]guest.Step{g.run, g.afterSend},
		[]guest.Step{c.run, c.afterSend})
	if !ok {
		return guest.Forked{}, fmt.Errorf("senderGuest: unknown continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
}

// rxWatcher blocks in NetRxWait consuming the NIC flood, exercising
// the net-waiter list and wake-latency events across a checkpoint.
type rxWatcher struct {
	rounds int
	seen   uint64
	i      int
}

func (w *rxWatcher) run(ctx guest.Context, r guest.Resume) guest.Step {
	if w.i > 0 {
		w.seen = r.Ret
	}
	if w.i >= w.rounds {
		return nil
	}
	w.i++
	ctx.NetRxWait(w.seen)
	return w.run
}

func (w *rxWatcher) fork(cur guest.Step) (guest.Forked, error) {
	c := *w
	s, ok := guest.RebindStep(cur, []guest.Step{w.run}, []guest.Step{c.run})
	if !ok {
		return guest.Forked{}, fmt.Errorf("rxWatcher: unknown continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
}

// snapCfg is a machine config dense in mechanisms: tight RAM for
// swap traffic, armed syscall faults, and (via spawnSnapWorkload) a
// NIC flood feeding a blocked reader.
func snapCfg(seed int64) Config {
	return Config{
		Seed:         seed,
		CPUHz:        1_000_000_000,
		PhysMemBytes: 24 * mem.DefaultPageSize,
		Faults: &FaultSpec{Syscalls: []SyscallFault{
			{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: 200_000},
		}},
	}
}

func spawnSnapWorkload(t *testing.T, m *Machine) (pids []proc.PID) {
	t.Helper()
	specs := []SpawnConfig{
		{Name: "churn", Content: "churn v1"},
		{Name: "sender", Content: "sender v1", Nice: -5},
		{Name: "watcher", Content: "watcher v1"},
	}
	guests := []struct {
		step guest.Step
		fork guest.ForkFunc
	}{
		func() (s struct {
			step guest.Step
			fork guest.ForkFunc
		}) {
			g := &churnGuest{rounds: 60, burst: 150_000, sleep: 90_000, pages: 40}
			s.step, s.fork = g.run, g.fork
			return
		}(),
		func() (s struct {
			step guest.Step
			fork guest.ForkFunc
		}) {
			g := &senderGuest{rounds: 50, gap: 120_000}
			s.step, s.fork = g.run, g.fork
			return
		}(),
		func() (s struct {
			step guest.Step
			fork guest.ForkFunc
		}) {
			g := &rxWatcher{rounds: 30}
			s.step, s.fork = g.run, g.fork
			return
		}(),
	}
	for i, sc := range specs {
		sc.Step = guests[i].step
		sc.Fork = guests[i].fork
		p, err := m.Spawn(sc)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID)
	}
	m.NIC().StartFlood(40_000)
	return pids
}

// renderFinal serialises everything observable about a finished
// machine, so byte-equality of two renders is the test oracle.
func renderFinal(m *Machine, pids []proc.PID) string {
	var b strings.Builder
	// steps is deliberately absent: it counts engine iterations, which
	// barrier slicing inflates (each RunUntil pause costs bookkeeping
	// steps) without any effect on the simulated history — the same
	// reason TestRunUntilSlicesMatchRun does not compare it.
	fmt.Fprintf(&b, "clock=%d faults=%d rxdrop=%d nicrx=%d diskio=%d diskw=%d\n",
		m.Clock().Now(), m.FaultsInjected(), m.RxBufDropped(),
		m.NIC().Received(), m.Disk().IOs(), m.Disk().Writes())
	for _, pid := range pids {
		st := m.Stats(pid)
		fmt.Fprintf(&b, "pid=%d stats=%+v\n", pid, st)
		for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
			u, ok := m.UsageBy(scheme, pid)
			fmt.Fprintf(&b, "pid=%d %s ok=%v usage=%+v\n", pid, scheme, ok, u)
		}
	}
	for _, ms := range m.Measurements() {
		fmt.Fprintf(&b, "measure=%+v\n", ms)
	}
	return b.String()
}

func runToCompletion(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoreByteIdentical pins the core checkpoint
// guarantee: pause at a mid-run barrier, snapshot, restore, run the
// restored machine to completion — the result is byte-identical to
// the uninterrupted run, at every barrier tried, and restoring the
// same image twice yields the same bytes both times.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	ref := New(snapCfg(42))
	refPIDs := spawnSnapWorkload(t, ref)
	runToCompletion(t, ref)
	want := renderFinal(ref, refPIDs)

	for _, barrier := range []sim.Cycles{800_000, 3_333_333, 10_000_000, 25_000_000} {
		m := New(snapCfg(42))
		pids := spawnSnapWorkload(t, m)
		done, err := m.RunUntil(barrier)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("barrier %d: workload finished before the barrier; lengthen it", barrier)
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatalf("barrier %d: snapshot: %v", barrier, err)
		}
		// The snapshotted machine keeps running unharmed.
		runToCompletion(t, m)
		if got := renderFinal(m, pids); got != want {
			t.Fatalf("barrier %d: snapshotted original diverged from uninterrupted run:\n got: %s\nwant: %s", barrier, got, want)
		}
		for copyN := 0; copyN < 2; copyN++ {
			r, err := Restore(img)
			if err != nil {
				t.Fatalf("barrier %d copy %d: restore: %v", barrier, copyN, err)
			}
			if r.Clock().Now() != img.At() {
				t.Fatalf("restored clock %d != image time %d", r.Clock().Now(), img.At())
			}
			runToCompletion(t, r)
			if got := renderFinal(r, pids); got != want {
				t.Fatalf("barrier %d copy %d: restored run diverged:\n got: %s\nwant: %s", barrier, copyN, got, want)
			}
		}
	}
}

// TestSnapshotRestoreSlicedBarriers restores an image and drives the
// restored machine in RunUntil slices rather than one Run, pinning
// that a restored machine supports barrier-sliced driving (what the
// cluster does) with identical results.
func TestSnapshotRestoreSlicedBarriers(t *testing.T) {
	ref := New(snapCfg(7))
	pids := spawnSnapWorkload(t, ref)
	runToCompletion(t, ref)
	want := renderFinal(ref, pids)

	m := New(snapCfg(7))
	spawnSnapWorkload(t, m)
	if _, err := m.RunUntil(5_000_000); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	limit := r.Clock().Now()
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("sliced restored run did not terminate")
		}
		limit += 777_777
		done, err := r.RunUntil(limit)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if got := renderFinal(r, pids); got != want {
		t.Fatalf("sliced restored run diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestForkDivergence pins fork independence: two restores of one
// image fed identical post-fork inputs match exactly; a third fed a
// different input (a heavier flood) diverges — and none of the three
// perturbs the others.
func TestForkDivergence(t *testing.T) {
	m := New(snapCfg(11))
	pids := spawnSnapWorkload(t, m)
	if _, err := m.RunUntil(4_000_000); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	variant := func(extraFlood uint64) string {
		r, err := Restore(img)
		if err != nil {
			t.Fatal(err)
		}
		if extraFlood > 0 {
			r.NIC().StartFlood(extraFlood)
		}
		runToCompletion(t, r)
		return renderFinal(r, pids)
	}
	base1 := variant(0)
	base2 := variant(0)
	heavy := variant(900_000)
	if base1 != base2 {
		t.Fatalf("identical post-fork inputs diverged:\n a: %s\n b: %s", base1, base2)
	}
	if base1 == heavy {
		t.Fatal("post-fork flood input did not diverge the forked machine")
	}
}

// TestSnapshotNotSnapshottable pins the checkpoint contract: a
// started Body guest and a Step guest without Fork both refuse to
// checkpoint with ErrNotSnapshottable; a never-started Body guest
// snapshots fine and replays identically.
func TestSnapshotNotSnapshottable(t *testing.T) {
	// Started Body guest, paused mid-compute: the refusal names the
	// task and its state.
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	legacy, err := m.Spawn(SpawnConfig{
		Name: "legacy", Content: "legacy v1",
		Body: func(ctx guest.Context) {
			for i := 0; i < 100; i++ {
				ctx.Compute(100_000)
				ctx.Sleep(50_000)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUntil(1_000_000); err != nil {
		t.Fatal(err)
	}
	_, err = m.Snapshot()
	if !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("snapshot of started Body guest: err = %v, want ErrNotSnapshottable", err)
	}
	if want := fmt.Sprintf("legacy (pid %d, %s)", legacy.PID, proc.Running); !strings.Contains(err.Error(), want) {
		t.Fatalf("snapshot of started Body guest: err = %v, want the task and its state named as %q", err, want)
	}

	// Step guest without Fork.
	m2 := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	g := &churnGuest{rounds: 10, burst: 100_000, sleep: 50_000, pages: 4}
	if _, err := m2.Spawn(SpawnConfig{Name: "nofork", Content: "nofork v1", Step: g.run}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RunUntil(500_000); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Snapshot(); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("snapshot of forkless Step guest: err = %v, want ErrNotSnapshottable", err)
	}

	// Never-started Body guest: snapshottable (its body re-runs from
	// scratch on the restored machine, which is its exact state).
	body := func(ctx guest.Context) {
		for i := 0; i < 20; i++ {
			ctx.Compute(80_000)
			ctx.Sleep(40_000)
		}
	}
	build := func() (*Machine, proc.PID) {
		mb := New(Config{Seed: 5, CPUHz: 1_000_000_000})
		p, err := mb.Spawn(SpawnConfig{Name: "unstarted", Content: "u v1", Body: body})
		if err != nil {
			t.Fatal(err)
		}
		return mb, p.PID
	}
	ref, refPID := build()
	runToCompletion(t, ref)
	want := renderFinal(ref, []proc.PID{refPID})

	mb, pid := build()
	img, err := mb.Snapshot()
	if err != nil {
		t.Fatalf("snapshot of never-started Body guest: %v", err)
	}
	r, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, r)
	if got := renderFinal(r, []proc.PID{pid}); got != want {
		t.Fatalf("never-started Body restore diverged:\n got: %s\nwant: %s", got, want)
	}
	mb.Shutdown()
}

// TestPoolReusesShells pins the reset-and-reuse path: machines
// restored through a Pool behave byte-identically to plain restores,
// across repeated Get/Put cycles of the same shell.
func TestPoolReusesShells(t *testing.T) {
	m := New(snapCfg(21))
	pids := spawnSnapWorkload(t, m)
	if _, err := m.RunUntil(4_000_000); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, plain)
	want := renderFinal(plain, pids)

	var pool Pool
	for cycle := 0; cycle < 3; cycle++ {
		r, err := pool.Get(img)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		runToCompletion(t, r)
		if got := renderFinal(r, pids); got != want {
			t.Fatalf("cycle %d: pooled restore diverged:\n got: %s\nwant: %s", cycle, got, want)
		}
		pool.Put(r)
	}
}

// tracedHotAddr is the traced victim's hot variable.
const tracedHotAddr = 0x4000

// tracedVictim computes and stores to one hot address in a loop.
type tracedVictim struct {
	rounds int
	i      int
}

func (v *tracedVictim) run(ctx guest.Context, _ guest.Resume) guest.Step {
	if v.i >= v.rounds {
		return nil
	}
	v.i++
	ctx.Compute(30_000)
	return v.store
}

func (v *tracedVictim) store(ctx guest.Context, _ guest.Resume) guest.Step {
	ctx.Store(tracedHotAddr)
	return v.run
}

func (v *tracedVictim) fork(cur guest.Step) (guest.Forked, error) {
	c := *v
	s, ok := guest.RebindStep(cur, []guest.Step{v.run, v.store}, []guest.Step{c.run, c.store})
	if !ok {
		return guest.Forked{}, fmt.Errorf("tracedVictim: unknown continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
}

// watchTracer attaches to the victim, arms a watchpoint on its hot
// address, and resumes it at every stop until it exits. Each
// activation posts the request its phase names.
type watchTracer struct {
	victim proc.PID
	phase  int
	err    error
}

func (w *watchTracer) run(ctx guest.Context, r guest.Resume) guest.Step {
	if r.Err != nil {
		w.err = r.Err
		return nil
	}
	w.phase++
	switch w.phase {
	case 1:
		ctx.Sleep(100_000) // let the victim start
	case 2:
		ctx.Ptrace(guest.PtraceAttach, w.victim, 0, 0)
	case 3:
		ctx.Wait() // the attach's stop
	case 4:
		ctx.Ptrace(guest.PtracePokeUser, w.victim, guest.DR0, tracedHotAddr)
	case 5:
		ctx.Ptrace(guest.PtracePokeUser, w.victim, guest.DR7, 1)
	case 6:
		ctx.Ptrace(guest.PtraceCont, w.victim, 0, 0)
	case 7:
		ctx.Wait()
	default:
		if !r.OK || !r.Wres.Stopped {
			return nil // the victim exited
		}
		w.phase = 6 // resume it, then wait again
		ctx.Ptrace(guest.PtraceCont, w.victim, 0, 0)
	}
	return w.run
}

func (w *watchTracer) fork(cur guest.Step) (guest.Forked, error) {
	c := *w
	s, ok := guest.RebindStep(cur, []guest.Step{w.run}, []guest.Step{c.run})
	if !ok {
		return guest.Forked{}, fmt.Errorf("watchTracer: unknown continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
}

// TestSnapshotTracedTask checkpoints a ptrace pair — a victim that
// traps on a watchpoint at every store and a tracer that resumes it —
// at evenly spaced barriers. Each restore must finish byte-identical to
// the uninterrupted run, and some barrier must catch the victim
// stopped at its trap, so the copy of stop, trace and watchpoint state
// is exercised.
func TestSnapshotTracedTask(t *testing.T) {
	build := func() (*Machine, []proc.PID, *watchTracer) {
		m := New(Config{Seed: 3, CPUHz: 1_000_000_000})
		v := &tracedVictim{rounds: 200}
		vp, err := m.Spawn(SpawnConfig{Name: "victim", Content: "victim v1", Step: v.run, Fork: v.fork})
		if err != nil {
			t.Fatal(err)
		}
		w := &watchTracer{victim: vp.PID}
		tp, err := m.Spawn(SpawnConfig{Name: "tracer", Content: "tracer v1", Nice: -5, Step: w.run, Fork: w.fork})
		if err != nil {
			t.Fatal(err)
		}
		return m, []proc.PID{vp.PID, tp.PID}, w
	}
	ref, pids, w := build()
	runToCompletion(t, ref)
	if w.err != nil {
		t.Fatalf("tracer: %v", w.err)
	}
	if ref.Stats(pids[0]).DebugExceptions == 0 {
		t.Fatal("the victim never hit its watchpoint")
	}
	want := renderFinal(ref, pids)
	end := ref.Clock().Now()

	const slices = 40
	caught := 0
	for i := sim.Cycles(1); i < slices; i++ {
		barrier := end * i / slices
		m, _, _ := build()
		done, err := m.RunUntil(barrier)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("barrier %d: the run finished before it", barrier)
		}
		if vt := m.tasks[pids[0]]; vt != nil && vt.watchFired {
			caught++
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatalf("barrier %d: snapshot: %v", barrier, err)
		}
		m.Shutdown()
		r, err := Restore(img)
		if err != nil {
			t.Fatalf("barrier %d: restore: %v", barrier, err)
		}
		runToCompletion(t, r)
		if got := renderFinal(r, pids); got != want {
			t.Fatalf("barrier %d: restored run diverged:\n got: %s\nwant: %s", barrier, got, want)
		}
	}
	if caught == 0 {
		t.Fatal("no barrier caught the victim stopped at its watchpoint")
	}
	t.Logf("%d of %d barriers caught the victim stopped at its watchpoint", caught, slices-1)
}

// refusalProbe snapshots its own machine from inside its activations:
// first while a RunUntil barrier is pending, then right after a post
// of its fired that barrier, while the engine is still mid-drive.
type refusalProbe struct {
	m                 *Machine
	barrier           sim.Cycles
	pending, midDrive error
}

func (g *refusalProbe) run(ctx guest.Context, _ guest.Resume) guest.Step {
	_, g.pending = g.m.Snapshot()
	ctx.Compute(g.barrier - g.m.Clock().Now()) // ends at the barrier
	return g.atBarrier
}

func (g *refusalProbe) atBarrier(ctx guest.Context, _ guest.Resume) guest.Step {
	ctx.Compute(1) // the barrier, due now, fires before this is served
	_, g.midDrive = g.m.Snapshot()
	return g.done
}

func (g *refusalProbe) done(guest.Context, guest.Resume) guest.Step { return nil }

func (g *refusalProbe) fork(cur guest.Step) (guest.Forked, error) {
	c := *g
	s, ok := guest.RebindStep(cur,
		[]guest.Step{g.run, g.atBarrier, g.done},
		[]guest.Step{c.run, c.atBarrier, c.done})
	if !ok {
		return guest.Forked{}, fmt.Errorf("refusalProbe: unknown continuation")
	}
	return guest.Forked{Step: s, Fork: c.fork}, nil
}

// TestSnapshotRefusalsNameWhatIsPending pins the texts of the two
// refusals that are about the machine rather than a task: a pending
// RunUntil barrier is named by its virtual time, and a snapshot taken
// mid-drive names the clock and the task on the CPU.
func TestSnapshotRefusalsNameWhatIsPending(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	g := &refusalProbe{m: m, barrier: 1_000_000}
	p, err := m.Spawn(SpawnConfig{Name: "probe", Content: "probe v1", Step: g.run, Fork: g.fork})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := m.RunUntil(g.barrier); done || err != nil {
		t.Fatalf("RunUntil = %v, %v", done, err)
	}
	for _, c := range []struct {
		what string
		err  error
		want string
	}{
		{"pending barrier", g.pending, "a RunUntil barrier at t=1000000 is pending"},
		{"mid-drive", g.midDrive, fmt.Sprintf("machine is mid-drive at t=1000000 with probe (pid %d, running) on the CPU", p.PID)},
	} {
		if !errors.Is(c.err, ErrNotSnapshottable) || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s snapshot: err = %v, want ErrNotSnapshottable naming %q", c.what, c.err, c.want)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
