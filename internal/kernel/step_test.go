package kernel

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// mixedGuest is a resumable guest exercising most of the request
// surface: compute spans, a syscall, a sleep, a yield, a clock read,
// a fork of a Body child plus the wait that reaps it, and a nonzero
// exit. mixedBody issues the same requests as blocking code.
type mixedGuest struct {
	pc       int
	childPID proc.PID
	wres     guest.WaitResult
	wok      bool
	clock    sim.Cycles
}

func (g *mixedGuest) run(ctx guest.Context, r guest.Resume) guest.Step {
	switch g.pc {
	case 0:
		g.pc = 1
		ctx.Compute(1_000_000)
		return g.run
	case 1:
		g.pc = 2
		//simlint:errno-ok no faults configured; the reply lands in the next Resume anyway
		ctx.Syscall("read")
		return g.run
	case 2:
		g.pc = 3
		ctx.Fork("child", func(c guest.Context) {
			c.Compute(500_000)
			c.Exit(42)
		})
		return g.run
	case 3:
		g.childPID = proc.PID(r.Ret)
		g.pc = 4
		ctx.Wait()
		return g.run
	case 4:
		g.wres, g.wok = r.Wres, r.OK
		g.pc = 5
		ctx.Sleep(2_000_000)
		return g.run
	case 5:
		g.pc = 6
		ctx.Yield()
		return g.run
	case 6:
		g.pc = 7
		ctx.ClockNow()
		return g.run
	case 7:
		g.clock = sim.Cycles(r.Ret)
		g.pc = 8
		ctx.Compute(750_000)
		return g.run
	}
	ctx.Exit(7)
	return nil
}

// mixedBody is mixedGuest's request sequence written as blocking
// code, recording the replies into g.
func mixedBody(g *mixedGuest) guest.Routine {
	return func(ctx guest.Context) {
		ctx.Compute(1_000_000)
		//simlint:errno-ok no faults configured
		ctx.Syscall("read")
		g.childPID = ctx.Fork("child", func(c guest.Context) {
			c.Compute(500_000)
			c.Exit(42)
		})
		g.wres, g.wok = ctx.Wait()
		ctx.Sleep(2_000_000)
		ctx.Yield()
		g.clock = ctx.ClockNow()
		ctx.Compute(750_000)
		ctx.Exit(7)
	}
}

// runMixed runs the mixed guest as a Step or as a Body and returns
// the guest state plus the machine for ledger comparison.
func runMixed(t *testing.T, asStep bool) (*mixedGuest, *Machine, proc.PID) {
	t.Helper()
	m := testMachine(t)
	g := &mixedGuest{}
	sc := SpawnConfig{Name: "mixed"}
	if asStep {
		sc.Step = g.run
	} else {
		sc.Body = mixedBody(g)
	}
	p, err := m.Spawn(sc)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m)
	return g, m, p.PID
}

// TestStepGuestMatchesBodyGuest pins that how a guest is written does
// not change the machine's history: the same request sequence as a
// Step and as blocking Body code gets the same replies, the same
// final clock and the same bills.
func TestStepGuestMatchesBodyGuest(t *testing.T) {
	gs, ms, ps := runMixed(t, true)
	gb, mb, pb := runMixed(t, false)

	if !gs.wok || !gb.wok {
		t.Fatalf("wait reaped no child: step ok=%v body ok=%v", gs.wok, gb.wok)
	}
	if gs.wres.ExitCode != 42 || gb.wres.ExitCode != 42 {
		t.Fatalf("child exit codes = %d / %d, want 42", gs.wres.ExitCode, gb.wres.ExitCode)
	}
	if gs.childPID != gb.childPID || gs.wres.PID != gb.wres.PID {
		t.Fatalf("child pids diverged: step fork=%d wait=%d, body fork=%d wait=%d",
			gs.childPID, gs.wres.PID, gb.childPID, gb.wres.PID)
	}
	if gs.clock == 0 || gs.clock != gb.clock {
		t.Fatalf("ClockNow diverged: step %d, body %d", gs.clock, gb.clock)
	}
	if ns, nb := ms.Clock().Now(), mb.Clock().Now(); ns != nb {
		t.Fatalf("final virtual time diverged: step %d, body %d", ns, nb)
	}
	for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
		us, _ := ms.UsageBy(scheme, ps)
		ub, _ := mb.UsageBy(scheme, pb)
		if us != ub {
			t.Fatalf("%s usage diverged: step %+v, body %+v", scheme, us, ub)
		}
	}
	if cs, cb := ms.Stats(ps), mb.Stats(pb); cs != cb {
		t.Fatalf("kernel counters diverged: step %+v, body %+v", cs, cb)
	}
}

// TestFlyweightBarrierSlices pins that driving a flyweight guest in
// RunUntil barrier slices produces the exact history Run would — the
// same invariant Body guests hold, and what a cluster's lockstep
// depends on.
func TestFlyweightBarrierSlices(t *testing.T) {
	whole := func() (sim.Cycles, metering.Usage) {
		m := testMachine(t)
		g := &mixedGuest{}
		p, _ := m.Spawn(SpawnConfig{Name: "mixed", Step: g.run})
		run(t, m)
		u, _ := m.UsageBy("tsc", p.PID)
		return m.Clock().Now(), u
	}
	sliced := func(slice sim.Cycles) (sim.Cycles, metering.Usage) {
		m := testMachine(t)
		g := &mixedGuest{}
		p, _ := m.Spawn(SpawnConfig{Name: "mixed", Step: g.run})
		limit := slice
		for {
			done, err := m.RunUntil(limit)
			if err != nil {
				t.Fatalf("run until %d: %v", limit, err)
			}
			if done {
				break
			}
			limit += slice
		}
		u, _ := m.UsageBy("tsc", p.PID)
		return m.Clock().Now(), u
	}

	wantNow, wantUsage := whole()
	for _, slice := range []sim.Cycles{100_000, 777_777, 3_000_000} {
		gotNow, gotUsage := sliced(slice)
		if gotNow != wantNow || gotUsage != wantUsage {
			t.Fatalf("slice %d: now=%d usage=%+v, want now=%d usage=%+v",
				slice, gotNow, gotUsage, wantNow, wantUsage)
		}
	}
}

// TestFlyweightContractViolations pins the activation loop's
// determinism guards: an activation that posts twice, returns a
// continuation without posting, or runs Routine code in guest context
// (Call, Call1, Exec) is a guest bug and must fail loudly rather than
// silently diverge from the request sequence it means. It also pins
// that a Step guest's posting methods return zero values, even for a
// request the kernel grants inline: the reply arrives in the next
// Resume only. A compute that post burns on the spot follows every
// reply-carrying probe, and its Resume must carry no reply at all:
// none left over from the request before it.
func TestFlyweightContractViolations(t *testing.T) {
	mustPanic := func(name, want string, step guest.Step) {
		t.Helper()
		m := testMachine(t)
		if _, err := m.Spawn(SpawnConfig{Name: name, Step: step}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: got panic %v, want one containing %q", name, r, want)
			}
			m.Shutdown()
		}()
		_ = m.Run()
	}

	mustPanic("double-post", "posted two requests", func(ctx guest.Context, r guest.Resume) guest.Step {
		ctx.Compute(1000)
		ctx.Sleep(1000) // second post in one activation
		return nil
	})
	mustPanic("no-post", "without posting", func(ctx guest.Context, r guest.Resume) guest.Step {
		return func(guest.Context, guest.Resume) guest.Step { return nil }
	})
	mustPanic("call", `called "strlen"`, func(ctx guest.Context, r guest.Resume) guest.Step {
		ctx.Call("strlen", 0)
		return nil
	})
	mustPanic("call1", `called "strlen"`, func(ctx guest.Context, r guest.Resume) guest.Step {
		ctx.Call1("strlen", 0)
		return nil
	})
	mustPanic("exec", "used Exec", func(ctx guest.Context, r guest.Resume) guest.Step {
		ctx.Exec(&guest.Program{Name: "prog"})
		return nil
	})

	m := New(Config{Seed: 1, CPUHz: 1_000_000_000, MaxSteps: 50_000_000,
		Faults: &FaultSpec{Syscalls: []SyscallFault{{Name: "read", Errno: guest.EAGAIN, ProbPPM: 1_000_000}}}})
	m.NIC().InjectRx(1000)
	type probeCase struct {
		name  string
		post  func(guest.Context) bool // posts; reports a zero return
		reply func(guest.Resume) bool  // reports the reply the kernel owes
	}
	const burn = 1_000
	compute := probeCase{"Compute", func(c guest.Context) bool {
		if at, _ := m.queue.PeekTime(); at-m.Clock().Now() < burn {
			t.Errorf("an event falls due inside the probe's compute; the probe pins nothing")
		}
		c.Compute(burn)
		return true
	}, func(r guest.Resume) bool { return !r.OK && r.Ret == 0 && r.Err == nil && r.User == 0 && r.Sys == 0 }}
	probes := []probeCase{
		{"ClockNow", func(c guest.Context) bool { return c.ClockNow() == 0 }, func(r guest.Resume) bool { return r.Ret != 0 }},
		compute,
		{"NetRxWait", func(c guest.Context) bool { return c.NetRxWait(0) == 0 }, func(r guest.Resume) bool { return r.Ret == 1 }},
		compute,
		{"Usage", func(c guest.Context) bool { u, s := c.Usage(); return u == 0 && s == 0 }, func(r guest.Resume) bool { return r.User != 0 }},
		compute,
		{"Syscall", func(c guest.Context) bool { return c.Syscall("read") == nil }, func(r guest.Resume) bool { return r.Err == guest.EAGAIN }},
		compute,
	}
	i := -1
	var probe guest.Step
	probe = func(ctx guest.Context, r guest.Resume) guest.Step {
		if i < 0 {
			// Run long enough for a clock, a bill and a delivered frame.
			ctx.Compute(30_000_000)
			i++
			return probe
		}
		if i > 0 && !probes[i-1].reply(r) {
			t.Errorf("%s: Resume %+v is not the reply the kernel owes", probes[i-1].name, r)
		}
		if i == len(probes) {
			return nil
		}
		p := probes[i]
		i++
		if !p.post(ctx) {
			t.Errorf("%s returned a nonzero value to a Step guest", p.name)
		}
		if !m.tasks[ctx.PID()].granted {
			t.Errorf("%s was not granted inline; the probe pins nothing", p.name)
		}
		return probe
	}
	if _, err := m.Spawn(SpawnConfig{Name: "probe", Step: probe}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if i != len(probes) {
		t.Fatalf("probe ran %d of %d posts", i, len(probes))
	}
}

// TestSpawnRequiresExactlyOneDriver pins the SpawnConfig validation.
func TestSpawnRequiresExactlyOneDriver(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Spawn(SpawnConfig{Name: "none"}); err == nil {
		t.Fatal("spawn with neither Body nor Step succeeded")
	}
	both := SpawnConfig{
		Name: "both",
		Body: func(guest.Context) {},
		Step: func(guest.Context, guest.Resume) guest.Step { return nil },
	}
	if _, err := m.Spawn(both); err == nil {
		t.Fatal("spawn with both Body and Step succeeded")
	}
	m.Shutdown()
}

// countCtx counts in *n the requests a retry posts through it.
type countCtx struct {
	guest.Context
	n *int
}

func (c countCtx) NetRecv() (guest.Frame, bool, error) { *c.n++; return c.Context.NetRecv() }
func (c countCtx) NetSend(f guest.Frame) (bool, error) { *c.n++; return c.Context.NetSend(f) }
func (c countCtx) ClockNow() sim.Cycles                { *c.n++; return c.Context.ClockNow() }
func (c countCtx) Sleep(d sim.Cycles)                  { *c.n++; c.Context.Sleep(d) }

// retryAttempts is how many retried requests each side of
// TestRetryStepMatchesBlockingRetry makes.
const retryAttempts = 8

// retryFrame is what the send cases send.
var retryFrame = guest.Frame{Dst: 9, Flow: 7}

// retryPoller makes retryAttempts retried reads, or sends, through a
// RetryStep. It counts its requests in *n and appends each retry's
// final error to *errs.
type retryPoller struct {
	send    bool
	budget  sim.Cycles
	retry   guest.RetryStep
	started bool
	n       *int
	errs    *[]error
}

func (g *retryPoller) Activate(ctx guest.Context, r guest.Resume) bool {
	c := countCtx{ctx, g.n}
	if g.started {
		switch g.retry.Next(c, &r) {
		case guest.RetryPosted:
			return true
		case guest.RetryAgain:
			g.attempt(c)
			return true
		}
		if *g.errs = append(*g.errs, r.Err); len(*g.errs) == retryAttempts {
			return false
		}
	}
	g.started = true
	g.retry.Arm(g.budget)
	g.attempt(c)
	return true
}

func (g *retryPoller) attempt(ctx guest.Context) {
	if g.send {
		//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
		ctx.NetSend(retryFrame)
		return
	}
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetRecv()
}

// TestRetryStepMatchesBlockingRetry pins the plain-data retry engine
// against the blocking wrappers it mirrors, guest.RecvRetry and
// guest.SendRetry: under the same injected fault schedule both must
// post the same requests, land on the same final clock and end each
// retry with the same error. The cases retry reads and sends at 40%
// EAGAIN, a read class that turns to EIO while the first retry sleeps
// out a backoff, reads that fail until every budget runs out, and
// budget 0, which never retries.
func TestRetryStepMatchesBlockingRetry(t *testing.T) {
	const budget = 1 << 16
	for _, tc := range []struct {
		name   string
		send   bool
		ppm    uint32 // EAGAIN probability of the retried class
		budget sim.Cycles
		eioAt  sim.Cycles // when nonzero, the class fails with EIO from then on
	}{
		{name: "recv", ppm: 400_000, budget: budget},
		{name: "send", send: true, ppm: 400_000, budget: budget},
		{name: "EIO mid-backoff", ppm: PPMScale, budget: budget, eioAt: 20_000},
		{name: "budget runs out", ppm: PPMScale, budget: budget},
		{name: "budget 0", ppm: 400_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			class := "read"
			if tc.send {
				class = "sendto"
			}
			type outcome struct {
				requests int
				now      sim.Cycles
				faults   uint64
				errs     []error
			}
			// drive runs one guest to the end on a fresh machine, turning
			// its class to EIO at eioAt.
			drive := func(sc SpawnConfig, o *outcome) {
				m := New(Config{
					Seed:     9,
					CPUHz:    1_000_000_000,
					MaxSteps: 50_000_000,
					Faults: &FaultSpec{Syscalls: []SyscallFault{
						{Name: class, Errno: guest.EAGAIN, ProbPPM: tc.ppm},
					}},
				})
				p, err := m.Spawn(sc)
				if err != nil {
					t.Fatal(err)
				}
				if tc.eioAt > 0 {
					if done, err := m.RunUntil(tc.eioAt); done || err != nil {
						t.Fatalf("RunUntil(%d) = %v, %v", tc.eioAt, done, err)
					}
					if p.State != proc.Blocked || m.FaultsInjected() == 0 {
						t.Fatalf("at %d the guest is %s after %d faults, want it sleeping out a backoff", tc.eioAt, p.State, m.FaultsInjected())
					}
					sys, _ := lookupSyscall(class)
					m.faults[sys].Errno = guest.EIO
				}
				run(t, m)
				o.now, o.faults = m.Clock().Now(), m.FaultsInjected()
			}

			var want outcome
			drive(SpawnConfig{Name: "poll", Body: func(ctx guest.Context) {
				c := countCtx{ctx, &want.requests}
				for range retryAttempts {
					var err error
					if tc.send {
						_, err = guest.SendRetry(c, retryFrame, tc.budget)
					} else {
						_, _, err = guest.RecvRetry(c, tc.budget)
					}
					want.errs = append(want.errs, err)
				}
			}}, &want)

			var got outcome
			step, _ := guest.Resumable(retryPoller{send: tc.send, budget: tc.budget, n: &got.requests, errs: &got.errs})
			drive(SpawnConfig{Name: "poll", Step: step}, &got)

			if want.faults == 0 {
				t.Fatal("fault schedule injected nothing; retry loop untested")
			}
			if got.requests != want.requests || got.now != want.now || got.faults != want.faults || !slices.Equal(got.errs, want.errs) {
				t.Fatalf("resumable retry diverged: got %+v, want %+v", got, want)
			}
			switch {
			case tc.budget == 0 && want.requests != retryAttempts:
				t.Fatalf("budget 0 made %d requests, want one per attempt (%d)", want.requests, retryAttempts)
			case tc.eioAt > 0 && want.errs[0] != guest.EIO:
				t.Fatalf("the retry running when the class turned to EIO ended with %v, want EIO", want.errs[0])
			case tc.ppm == PPMScale && tc.eioAt == 0 && slices.ContainsFunc(want.errs, func(err error) bool { return err != guest.EAGAIN }):
				t.Fatalf("with every attempt failing, the retries ended with %v, want EAGAIN each", want.errs)
			}
		})
	}
}

// pagingMachine is a 4 MiB machine whose OOM killer acts after 1,000
// major faults, and pager is a Body guest that keeps paging through
// 64 MiB until the OOM killer takes it mid-request.
func pagingMachine() *Machine {
	return New(Config{Seed: 1, CPUHz: 1_000_000_000, PhysMemBytes: 4 << 20, OOMMajorFaultLimit: 1000, MaxSteps: 50_000_000})
}

func pager(ctx guest.Context) {
	for {
		for a := uint64(0); a < 64<<20; a += mem.DefaultPageSize {
			ctx.Store(a)
		}
	}
}

// TestOOMKilledLoneBodyGuestFinishesRun pins that a Body guest killed
// while it is the machine's last live task ends the run cleanly: Run
// returns nil, as it does for the same guest written as a Step.
func TestOOMKilledLoneBodyGuestFinishesRun(t *testing.T) {
	m := pagingMachine()
	p, err := m.Spawn(SpawnConfig{Name: "pager", Body: pager})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v, want nil once the OOM killer reaps the last task", err)
	}
	if code := p.ExitCode; code != 137 {
		t.Fatalf("pager exit code = %d, want 137 (OOM kill)", code)
	}
}

// TestOOMKilledBodyGuestLeavesNoGoroutine pins that a Body guest
// killed mid-request while another task still runs leaves no
// goroutine behind: shutdown stops its coroutine although reaping has
// already dropped the task.
func TestOOMKilledBodyGuestLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m := pagingMachine()
	victim, err := m.Spawn(SpawnConfig{Name: "pager", Body: pager})
	if err != nil {
		t.Fatal(err)
	}
	// The worker computes until the pager is dead, so the kill lands
	// while another task still runs.
	if _, err := m.Spawn(SpawnConfig{Name: "worker", Body: func(ctx guest.Context) {
		for {
			ctx.Compute(1_000_000)
			if _, alive := ctx.FindProcess("pager"); !alive {
				return
			}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if victim.ExitCode != 137 {
		t.Fatalf("pager exit code = %d, want 137 (OOM kill)", victim.ExitCode)
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines after the run, %d before: the killed guest's goroutine outlived its machine", after, before)
	}
}

// TestBodyCoroutinesAreReused pins that a machine recycles the
// coroutines of ended Body guests, as a fork storm needs: a parent
// that forks and reaps 200 children one at a time runs on two
// coroutines, its own and one its children take in turn.
func TestBodyCoroutinesAreReused(t *testing.T) {
	m := testMachine(t)
	made := 0
	if _, err := m.Spawn(SpawnConfig{Name: "parent", Body: func(ctx guest.Context) {
		for i := 0; i < 200; i++ {
			ctx.Fork("child", func(c guest.Context) { c.Compute(10_000) })
			if _, ok := ctx.Wait(); !ok {
				t.Error("wait reaped no child")
			}
		}
		// The engine waits while guest code runs, so the machine can
		// be read here, before shutdown releases its coroutines.
		made = len(m.coros)
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if made != 2 {
		t.Fatalf("the machine made %d coroutines for 201 Body tasks, want 2", made)
	}
}
