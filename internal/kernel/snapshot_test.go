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
	pc     uint8 // 0: top of the loop; 1: computed; 2: stored
}

func (g *churnGuest) Activate(ctx guest.Context, _ guest.Resume) bool {
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

// senderGuest transmits flow frames (drawing "sendto" fault rolls)
// with jittered pacing off the machine rng.
type senderGuest struct {
	rounds int
	gap    sim.Cycles
	i      int
	fails  int
	sent   bool // the last post was a send, not a sleep
}

func (g *senderGuest) Activate(ctx guest.Context, r guest.Resume) bool {
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
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume and is counted in fails there
	ctx.NetSend(guest.Frame{Dst: 9, Flow: 7})
	return true
}

// rxWatcher blocks in NetRxWait consuming the NIC flood, exercising
// the net-waiter list and wake-latency events across a checkpoint.
type rxWatcher struct {
	rounds int
	seen   uint64
	i      int
}

func (w *rxWatcher) Activate(ctx guest.Context, r guest.Resume) bool {
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
	churn, churnFork := guest.Resumable(churnGuest{rounds: 60, burst: 150_000, sleep: 90_000, pages: 40})
	sender, senderFork := guest.Resumable(senderGuest{rounds: 50, gap: 120_000})
	watcher, watcherFork := guest.Resumable(rxWatcher{rounds: 30})
	for _, sc := range []SpawnConfig{
		{Name: "churn", Content: "churn v1", Step: churn, Fork: churnFork},
		{Name: "sender", Content: "sender v1", Nice: -5, Step: sender, Fork: senderFork},
		{Name: "watcher", Content: "watcher v1", Step: watcher, Fork: watcherFork},
	} {
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
	nofork, _ := guest.Resumable(churnGuest{rounds: 10, burst: 100_000, sleep: 50_000, pages: 4})
	if _, err := m2.Spawn(SpawnConfig{Name: "nofork", Content: "nofork v1", Step: nofork}); err != nil {
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
	rounds   int
	i        int
	computed bool // the last post was the compute, not the store
}

func (v *tracedVictim) Activate(ctx guest.Context, _ guest.Resume) bool {
	if v.computed {
		v.computed = false
		ctx.Store(tracedHotAddr)
		return true
	}
	if v.i >= v.rounds {
		return false
	}
	v.i++
	v.computed = true
	ctx.Compute(30_000)
	return true
}

// watchTracer attaches to the victim, arms a watchpoint on its hot
// address, and resumes it at every stop until it exits. Each
// activation posts the request its phase names. A failed request ends
// it with the error in *err.
type watchTracer struct {
	victim proc.PID
	phase  int
	err    *error
}

func (w *watchTracer) Activate(ctx guest.Context, r guest.Resume) bool {
	if r.Err != nil {
		*w.err = r.Err
		return false
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
			return false // the victim exited
		}
		w.phase = 6 // resume it, then wait again
		ctx.Ptrace(guest.PtraceCont, w.victim, 0, 0)
	}
	return true
}

// TestSnapshotTracedTask checkpoints a ptrace pair — a victim that
// traps on a watchpoint at every store and a tracer that resumes it —
// at evenly spaced barriers. Each restore must finish byte-identical to
// the uninterrupted run, and some barrier must catch the victim
// stopped at its trap, so the copy of stop, trace and watchpoint state
// is exercised.
func TestSnapshotTracedTask(t *testing.T) {
	var tracerErr error
	build := func() (*Machine, []proc.PID) {
		m := New(Config{Seed: 3, CPUHz: 1_000_000_000})
		victim, victimFork := guest.Resumable(tracedVictim{rounds: 200})
		vp, err := m.Spawn(SpawnConfig{Name: "victim", Content: "victim v1", Step: victim, Fork: victimFork})
		if err != nil {
			t.Fatal(err)
		}
		tracer, tracerFork := guest.Resumable(watchTracer{victim: vp.PID, err: &tracerErr})
		tp, err := m.Spawn(SpawnConfig{Name: "tracer", Content: "tracer v1", Nice: -5, Step: tracer, Fork: tracerFork})
		if err != nil {
			t.Fatal(err)
		}
		return m, []proc.PID{vp.PID, tp.PID}
	}
	ref, pids := build()
	runToCompletion(t, ref)
	if tracerErr != nil {
		t.Fatalf("tracer: %v", tracerErr)
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
		m, _ := build()
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
		if tracerErr != nil {
			t.Fatalf("barrier %d: restored tracer: %v", barrier, tracerErr)
		}
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
// of its fired that barrier, while the engine is still mid-drive. It
// leaves the two refusals in *pending and *midDrive.
type refusalProbe struct {
	m                 *Machine
	barrier           sim.Cycles
	pending, midDrive *error
	pc                uint8
}

func (g *refusalProbe) Activate(ctx guest.Context, _ guest.Resume) bool {
	g.pc++
	switch g.pc {
	case 1:
		_, *g.pending = g.m.Snapshot()
		ctx.Compute(g.barrier - g.m.Clock().Now()) // ends at the barrier
	case 2:
		ctx.Compute(1) // the barrier, due now, fires before this is served
		_, *g.midDrive = g.m.Snapshot()
	default:
		return false
	}
	return true
}

// TestSnapshotRefusalsNameWhatIsPending pins the texts of the two
// refusals that are about the machine rather than a task: a pending
// RunUntil barrier is named by its virtual time, and a snapshot taken
// mid-drive names the clock and the task on the CPU.
func TestSnapshotRefusalsNameWhatIsPending(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	const barrier = 1_000_000
	var pending, midDrive error
	probe, probeFork := guest.Resumable(refusalProbe{m: m, barrier: barrier, pending: &pending, midDrive: &midDrive})
	p, err := m.Spawn(SpawnConfig{Name: "probe", Content: "probe v1", Step: probe, Fork: probeFork})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := m.RunUntil(barrier); done || err != nil {
		t.Fatalf("RunUntil = %v, %v", done, err)
	}
	for _, c := range []struct {
		what string
		err  error
		want string
	}{
		{"pending barrier", pending, "a RunUntil barrier at t=1000000 is pending"},
		{"mid-drive", midDrive, fmt.Sprintf("machine is mid-drive at t=1000000 with probe (pid %d, running) on the CPU", p.PID)},
	} {
		if !errors.Is(c.err, ErrNotSnapshottable) || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s snapshot: err = %v, want ErrNotSnapshottable naming %q", c.what, c.err, c.want)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
