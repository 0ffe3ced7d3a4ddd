package kernel

import (
	"slices"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// These tests cover the free lists that a reaped fork child's shells
// go back on (recycle, in syscalls.go): a warm fork storm allocates
// nothing, and each guard that keeps a reachable shell off the lists
// has a test that fails without it.

// freeTasks counts the tasks on m's free list.
func freeTasks(m *Machine) int {
	if m.spare == nil {
		return 0
	}
	return len(m.spare.tasks)
}

// TestForkStormAllocatesNothing runs a Body parent that forks a no-op
// child and waits for it, over and over: once the first children have
// been reaped, one fork→exit→wait cycle takes every shell from the
// free lists and allocates nothing.
func TestForkStormAllocatesNothing(t *testing.T) {
	for _, policy := range []string{"o1", "cfs"} {
		t.Run(policy, func(t *testing.T) {
			m := New(Config{Seed: 1, CPUHz: 1_000_000_000, SchedulerPolicy: policy})
			defer m.Shutdown()
			cycles := 0
			if _, err := m.Spawn(SpawnConfig{Name: "storm", Content: "storm v1", Body: func(ctx guest.Context) {
				for {
					ctx.Fork("child", func(guest.Context) {})
					ctx.Wait()
					cycles++
				}
			}}); err != nil {
				t.Fatal(err)
			}
			limit := m.Clock().Now()
			cycle := func() {
				for start := cycles; cycles == start; {
					limit += 10_000
					if done, err := m.RunUntil(limit); done || err != nil {
						t.Fatalf("RunUntil(%d) = %v, %v", limit, done, err)
					}
				}
			}
			for range 100 {
				cycle() // warm the free lists
			}
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Fatalf("a fork→exit→wait cycle allocated %v times, want 0", n)
			}
		})
	}
}

// TestReusedShellPaysContextSwitch reaps a fork child that was the
// last task to run and reuses its shell for a process spawned while the
// CPU idles. dispatch charges a context switch when the task differs
// from lastRun by pointer, so the reused shell pays one only because
// recycle forgets lastRun.
func TestReusedShellPaysContextSwitch(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	defer m.Shutdown()
	// The sleeper keeps the machine live while its CPU idles.
	spawn := func(name string, body guest.Routine) *proc.Proc {
		p, err := m.Spawn(SpawnConfig{Name: name, Content: name, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	spawn("sleeper", func(ctx guest.Context) { ctx.Sleep(50_000_000) })
	// The parent exits at once, so its child runs last and is reaped
	// as an orphan.
	spawn("parent", func(ctx guest.Context) { ctx.Fork("child", func(guest.Context) {}) })
	if done, err := m.RunUntil(10_000_000); done || err != nil {
		t.Fatalf("RunUntil = %v, %v", done, err)
	}
	if freeTasks(m) != 1 {
		t.Fatalf("%d tasks are free after the orphan's reap, want 1", freeTasks(m))
	}
	late := spawn("late", func(guest.Context) {})
	if freeTasks(m) != 0 {
		t.Fatal("the late process did not take the reaped child's shell")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats(late.PID).ContextSwitches; n != 1 {
		t.Fatalf("the reused shell paid %d context switches, want 1", n)
	}
}

// TestStaleNetWaiterSparesReusedShell leaves a dead child's task on
// netWaiters, as a reader killed while blocked in NetRxWait would (no
// path kills a blocked task today), and then forks a sleeper. nicRx
// drops the stale entry only because its task is dead: had the child's
// shell gone to the sleeper, the next frame would cut its sleep short.
func TestStaleNetWaiterSparesReusedShell(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	defer m.Shutdown()
	var first proc.PID
	var slept sim.Cycles
	if _, err := m.Spawn(SpawnConfig{Name: "parent", Content: "parent v1", Body: func(ctx guest.Context) {
		first = ctx.Fork("first", func(c guest.Context) { c.Sleep(1_000_000) })
		ctx.Sleep(5_000_000) // the first child dies a zombie meanwhile
		ctx.Wait()
		ctx.Fork("sleeper", func(c guest.Context) {
			t0 := c.ClockNow()
			c.Sleep(10_000_000)
			slept = c.ClockNow() - t0
		})
		ctx.Wait()
	}}); err != nil {
		t.Fatal(err)
	}
	if done, err := m.RunUntil(3_000_000); done || err != nil {
		t.Fatalf("RunUntil = %v, %v", done, err)
	}
	zombie := m.tasks[first]
	if zombie == nil || zombie.p.State != proc.Zombie {
		t.Fatalf("child %d is not a zombie at 3 ms", first)
	}
	m.netWaiters = append(m.netWaiters, zombie)
	m.NIC().InjectRx(8_000_000)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.NIC().Received() != 1 {
		t.Fatalf("the NIC received %d frames, want 1", m.NIC().Received())
	}
	if slept < 10_000_000 {
		t.Fatalf("the forked sleeper slept %d cycles, want at least 10,000,000", slept)
	}
}

// TestReapedThreadBillsItsGroup reaps a thread whose cycles are still
// unbilled (reapCleanup flushes only for a group leader) and then forks
// a child. Had the thread's shell gone to the child, flushRun would
// have billed the thread's cycles to the child's group, or lost them.
func TestReapedThreadBillsItsGroup(t *testing.T) {
	const threadCycles = 1_000_000
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	leader, err := m.Spawn(SpawnConfig{Name: "leader", Content: "leader v1", Body: func(ctx guest.Context) {
		ctx.SpawnThread("worker", func(c guest.Context) { c.Compute(threadCycles) })
		ctx.Wait()
		ctx.Fork("child", func(c guest.Context) { c.Compute(500_000) })
		ctx.Wait()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The leader's own user time is the thread's compute: every other
	// action it takes is a syscall, and the child's time folds into its
	// children's bill.
	for _, scheme := range []string{"tsc", "process-aware"} {
		if u, _ := m.UsageBy(scheme, leader.PID); u.User != threadCycles {
			t.Fatalf("%s bills the leader %d user cycles, want the thread's %d", scheme, u.User, threadCycles)
		}
	}
}

// TestOrphanOfReusedParentAutoReaps reaps a child that leaves a live
// grandchild behind and then forks a long sleeper. The grandchild's
// Parent still points at the reaped child, and doExit auto-reaps an
// orphan whose parent is not Alive: a PCB that still has children stays
// off the free list, or the sleeper would be that live parent.
func TestOrphanOfReusedParentAutoReaps(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	var grandchild proc.PID
	if _, err := m.Spawn(SpawnConfig{Name: "root", Content: "root v1", Body: func(ctx guest.Context) {
		ctx.Fork("middle", func(c guest.Context) {
			grandchild = c.Fork("orphan", func(g guest.Context) { g.Sleep(5_000_000) })
		})
		ctx.Wait()
		ctx.Fork("sleeper", func(c guest.Context) { c.Sleep(10_000_000) })
		ctx.Wait()
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p, ok := m.Table().Get(grandchild); ok {
		t.Fatalf("the orphan %v was never reaped: it is %s", p, p.State)
	}
}

// TestTraceeOfReusedTracerIsReaped forks a tracer that attaches to its
// sibling and exits, reuses the tracer's shell for a long sleeper, and
// checks that the parent reaps the tracee as soon as it exits. waitScan
// skips a zombie whose tracer is Alive, so this holds because doExit
// detaches every tracee of an exiting tracer: no Tracer points at a
// dead PCB.
func TestTraceeOfReusedTracerIsReaped(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	var tracee, sleeper proc.PID
	var reaped []proc.PID
	var reapedAt []sim.Cycles
	var attachErr error
	if _, err := m.Spawn(SpawnConfig{Name: "root", Content: "root v1", Body: func(ctx guest.Context) {
		tracee = ctx.Fork("tracee", func(c guest.Context) { c.Sleep(5_000_000) })
		ctx.Fork("tracer", func(c guest.Context) {
			attachErr = c.Ptrace(guest.PtraceAttach, tracee, 0, 0)
		})
		for i := 0; ; i++ {
			res, ok := ctx.Wait()
			if !ok {
				return
			}
			reaped = append(reaped, res.PID)
			reapedAt = append(reapedAt, ctx.ClockNow())
			if i == 0 {
				sleeper = ctx.Fork("sleeper", func(c guest.Context) { c.Sleep(10_000_000) })
			}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if attachErr != nil {
		t.Fatalf("attach: %v", attachErr)
	}
	if want := []proc.PID{tracee + 1, tracee, sleeper}; !slices.Equal(reaped, want) {
		t.Fatalf("the parent reaped %v, want the tracer, then the tracee, then the sleeper: %v", reaped, want)
	}
	if reapedAt[1] > 6_000_000 {
		t.Fatalf("the tracee, which exited at 5 ms, was reaped at %d cycles, after the sleeper's exit", reapedAt[1])
	}
}

// stormGuest is a forkable flyweight parent that forks children one at
// a time, waits for each and sleeps before the next, so a machine can
// be snapshotted between two children.
type stormGuest struct {
	kids   int
	body   guest.Routine
	gap    sim.Cycles
	forked int
	pc     uint8 // 0: top of the loop; 1: forked; 2: reaped
}

func (g *stormGuest) Activate(ctx guest.Context, _ guest.Resume) bool {
	switch g.pc {
	case 0:
		if g.forked == g.kids {
			return false
		}
		g.forked++
		g.pc = 1
		ctx.Fork("kid", g.body)
	case 1:
		g.pc = 2
		ctx.Wait()
	case 2:
		g.pc = 0
		ctx.Sleep(g.gap)
	}
	return true
}

// TestReusedShellsReplayFreshOnes snapshots a fork storm right after
// its first child is reaped and runs the machine and its restore to
// the end. The machine forks the second child on the first one's
// shells, the restore, whose free lists start empty, on fresh ones, so
// every reset a reused shell needs shows as a divergence between the
// two: the first child renices, exhausts its timeslices and pages,
// and a hog competes for the CPU, so a stale o1Data or cfsData record,
// a stale page table or stale task state would each change the history.
func TestReusedShellsReplayFreshOnes(t *testing.T) {
	for _, policy := range []string{"o1", "cfs"} {
		t.Run(policy, func(t *testing.T) {
			m := New(Config{Seed: 3, CPUHz: 1_000_000_000, SchedulerPolicy: policy, PhysMemBytes: 24 * mem.DefaultPageSize})
			storm, stormFork := guest.Resumable(stormGuest{kids: 3, gap: 2_000_000, body: func(c guest.Context) {
				// At nice 19 a child's vruntime runs far ahead of the
				// hog's, and it exhausts many 5 ms O1 timeslices.
				c.SetNice(19)
				c.Compute(150_000_000)
				for i := uint64(0); i < 8; i++ {
					c.Store(0x400000 + i*mem.DefaultPageSize)
				}
				c.Compute(30_000_000)
			}})
			parent, err := m.Spawn(SpawnConfig{Name: "parent", Content: "parent v1", Step: storm, Fork: stormFork})
			if err != nil {
				t.Fatal(err)
			}
			hogStep, hogFork := guest.Resumable(churnGuest{rounds: 40, burst: 40_000_000, sleep: 10_000_000, pages: 12})
			hog, err := m.Spawn(SpawnConfig{Name: "hog", Content: "hog v1", Step: hogStep, Fork: hogFork})
			if err != nil {
				t.Fatal(err)
			}
			// The first reap puts the first child's shells on the lists.
			for limit := sim.Cycles(1_000_000); freeTasks(m) == 0; limit += 1_000_000 {
				if done, err := m.RunUntil(limit); done || err != nil {
					t.Fatalf("RunUntil(%d) = %v, %v", limit, done, err)
				}
			}
			if forks := m.Stats(parent.PID).Forks; forks != 1 || freeTasks(m) != 1 {
				t.Fatalf("at the snapshot %d children were forked and %d tasks are free, want 1 and 1", forks, freeTasks(m))
			}
			img, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Restore(img)
			if err != nil {
				t.Fatal(err)
			}
			if freeTasks(fresh) != 0 {
				t.Fatal("a restore starts with free tasks")
			}
			pids := []proc.PID{parent.PID, hog.PID}
			runToCompletion(t, m)
			runToCompletion(t, fresh)
			if got, want := renderFinal(m, pids), renderFinal(fresh, pids); got != want {
				t.Fatalf("reused shells diverged from fresh ones:\nreused\n%s\nfresh\n%s", got, want)
			}
		})
	}
}

// TestOOMKilledShellIsNeverReused OOM-kills a forked Body guest
// mid-request and forks another child after reaping it. The killed
// guest stays parked in post, holding its task's stepCtx, until
// shutdown unwinds it, so its shells must stay off the free lists: the
// deferred call that shutdown runs still sees the killed guest's PID.
func TestOOMKilledShellIsNeverReused(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000, PhysMemBytes: 16 * mem.DefaultPageSize, OOMMajorFaultLimit: 4})
	var victim, unwoundAs proc.PID
	var code int
	if _, err := m.Spawn(SpawnConfig{Name: "root", Content: "root v1", Body: func(ctx guest.Context) {
		victim = ctx.Fork("hog", func(c guest.Context) {
			defer func() { unwoundAs = c.PID() }()
			for i := uint64(0); ; i++ {
				c.Store(i % 32 * mem.DefaultPageSize)
			}
		})
		res, _ := ctx.Wait()
		code = res.ExitCode
		ctx.Fork("next", func(guest.Context) {})
		ctx.Wait()
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if code != 137 {
		t.Fatalf("the hog exited with %d, want 137 (OOM-killed)", code)
	}
	if unwoundAs != victim {
		t.Fatalf("the killed hog unwound as pid %d, want its own pid %d", unwoundAs, victim)
	}
}

// reapingTracer forks a child and traces it through one stop: it
// attaches, waits for the attach's stop, continues the child, reaps it
// when it exits, sleeps, and waits once more, for no child, before it
// exits itself.
type reapingTracer struct {
	kid proc.PID
	pc  uint8
}

func (g *reapingTracer) Activate(ctx guest.Context, r guest.Resume) bool {
	g.pc++
	switch g.pc {
	case 1:
		ctx.Fork("kid", func(c guest.Context) { c.Compute(2_000_000) })
	case 2:
		g.kid = proc.PID(r.Ret)
		ctx.Ptrace(guest.PtraceAttach, g.kid, 0, 0)
	case 3:
		ctx.Wait() // the attach's stop
	case 4:
		ctx.Ptrace(guest.PtraceCont, g.kid, 0, 0)
	case 5:
		ctx.Wait() // the kid's exit: reaped here, by its tracer and parent
	case 6:
		ctx.Sleep(5_000_000)
	case 7:
		ctx.Wait()
	default:
		return false
	}
	return true
}

// TestTracerReapsItsTracee runs a reapingTracer and snapshots it while
// it sleeps after the reap. The reap must take the kid off the
// tracer's tracee list: a stale entry has no copy in a checkpoint, and
// the restored tracer's last Wait would dereference it.
func TestTracerReapsItsTracee(t *testing.T) {
	build := func() (*Machine, proc.PID) {
		m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
		step, fork := guest.Resumable(reapingTracer{})
		p, err := m.Spawn(SpawnConfig{Name: "tracer", Content: "tracer v1", Step: step, Fork: fork})
		if err != nil {
			t.Fatal(err)
		}
		return m, p.PID
	}
	ref, pid := build()
	runToCompletion(t, ref)
	want := renderFinal(ref, []proc.PID{pid})
	if ref.Stats(pid).Forks != 1 {
		t.Fatalf("the tracer forked %d children", ref.Stats(pid).Forks)
	}

	m, _ := build()
	if done, err := m.RunUntil(4_000_000); done || err != nil {
		t.Fatalf("RunUntil = %v, %v", done, err)
	}
	tracer := m.tasks[pid]
	if _, ok := m.Table().Get(pid + 1); ok || tracer.p.State != proc.Blocked {
		t.Fatalf("at 4 ms the tracer is %s and its kid is in the table, want it sleeping after the reap", tracer.p.State)
	}
	if len(tracer.tracees) != 0 {
		t.Fatalf("after the reap the tracer still lists %d tracees", len(tracer.tracees))
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	r, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, r)
	for i, got := range []string{renderFinal(m, []proc.PID{pid}), renderFinal(r, []proc.PID{pid})} {
		if got != want {
			t.Fatalf("the %s diverged from the uninterrupted run:\n got: %s\nwant: %s", [2]string{"original", "restore"}[i], got, want)
		}
	}
}

// TestOrphanedZombieIsReaped forks a child that exits while its parent
// sleeps, and the parent exits without waiting for it. The kernel
// reaps the orphaned zombie as init would: the child leaves the table,
// and its cycles fold into the system bucket.
func TestOrphanedZombieIsReaped(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	var child proc.PID
	if _, err := m.Spawn(SpawnConfig{Name: "parent", Content: "parent v1", Body: func(ctx guest.Context) {
		child = ctx.Fork("child", func(c guest.Context) { c.Compute(1_000_000) })
		ctx.Sleep(10_000_000)
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p, ok := m.Table().Get(child); ok {
		t.Fatalf("the orphaned child %v was never reaped: it is %s", p, p.State)
	}
	for _, scheme := range []string{"tsc", "process-aware"} {
		if u, _ := m.ChildrenUsageBy(scheme, metering.SystemPID); u.User < 1_000_000 {
			t.Fatalf("%s: the system bucket holds %d user cycles, want the orphan's 1,000,000", scheme, u.User)
		}
	}
}

// TestOrphanedGroupLeaderIsReaped forks a leader that spawns a thread
// and exits at once; its parent exits before the thread does. The
// leader stays a zombie while its thread runs, and once the last
// thread exits, no parent is left to reap it: the kernel does.
func TestOrphanedGroupLeaderIsReaped(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	var leader proc.PID
	if _, err := m.Spawn(SpawnConfig{Name: "root", Content: "root v1", Body: func(ctx guest.Context) {
		leader = ctx.Fork("leader", func(c guest.Context) {
			c.SpawnThread("worker", func(w guest.Context) { w.Compute(3_000_000) })
		})
		ctx.Sleep(1_000_000)
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range []proc.PID{leader, leader + 1} {
		if p, ok := m.Table().Get(pid); ok {
			t.Fatalf("%v was never reaped: it is %s", p, p.State)
		}
	}
	if u, _ := m.ChildrenUsageBy("tsc", metering.SystemPID); u.User < 3_000_000 {
		t.Fatalf("the system bucket holds %d user cycles, want the thread's 3,000,000", u.User)
	}
}
