package kernel

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/proc"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/compute_boundary.golden from the current tree")

// boundaryGolden holds TestComputeBoundaries' expected output, one
// "== <case>/<policy> ==" section per run. It was recorded at the
// commit before posted computes could be burned inside post, so every
// section is what the general beginPosted → burnCompute path does.
// Regenerate it only to move that bar on purpose:
//
//	go test ./internal/kernel -run TestComputeBoundaries -update
const boundaryGolden = "testdata/compute_boundary.golden"

// boundaryRun is one TestComputeBoundaries case on one scheduler
// policy: the machine, and the log its guests and probe events write.
type boundaryRun struct {
	t   *testing.T
	m   *Machine
	log []string
}

func (b *boundaryRun) logf(format string, args ...any) {
	b.log = append(b.log, fmt.Sprintf(format, args...))
}

// room returns the cycles from now to the queue's next event.
func (b *boundaryRun) room() sim.Cycles {
	at, _ := b.m.queue.PeekTime()
	return at - b.m.clock.Now()
}

// clearAhead computes through events until none falls due within span
// cycles of now.
func (b *boundaryRun) clearAhead(ctx guest.Context, span sim.Cycles) {
	for r := b.room(); r <= span; r = b.room() {
		ctx.Compute(r + 1)
	}
}

// fitQuantum computes through events until the probe's quantum is
// nonzero and ends before the next event, and returns the quantum left.
func (b *boundaryRun) fitQuantum(ctx guest.Context) sim.Cycles {
	for i := 0; i < 10_000; i++ {
		q, r := b.m.tasks[ctx.PID()].quantumLeft, b.room()
		if q > 0 && q < r {
			return q
		}
		ctx.Compute(r + 1)
	}
	b.t.Error("the probe's quantum never ended before an event")
	return 1
}

// unsplit reports a compute of d cycles, about to be posted, that
// nothing could split: the setup each inline case depends on.
func (b *boundaryRun) unsplit(ctx guest.Context, name string, d sim.Cycles) {
	q := b.m.tasks[ctx.PID()].quantumLeft
	if b.m.current != b.m.tasks[ctx.PID()] || b.m.needResched || b.room() < d || q > 0 && q < d {
		b.t.Errorf("%s: a %d-cycle compute could be split (quantum %d, room %d, resched %v); the case pins nothing",
			name, d, q, b.room(), b.m.needResched)
	}
}

// boundaryCase is the probe guest's script for one boundary the inline
// burn in post must respect.
type boundaryCase struct {
	name    string
	waker   bool       // also spawn a nice -20 sleeper whose wakes preempt
	barrier sim.Cycles // when set, pause at a RunUntil barrier there first
	probe   func(b *boundaryRun, ctx guest.Context)
}

var computeBoundaries = []boundaryCase{
	{name: "event-exact", probe: func(b *boundaryRun, ctx guest.Context) { b.probeEvent(ctx, 0) }},
	{name: "event-plus-1", probe: func(b *boundaryRun, ctx guest.Context) { b.probeEvent(ctx, 1) }},
	{name: "quantum-exact", probe: func(b *boundaryRun, ctx guest.Context) {
		q := b.fitQuantum(ctx)
		b.unsplit(ctx, "quantum-exact", q)
		ctx.Compute(q)
	}},
	{name: "quantum-plus-1", probe: func(b *boundaryRun, ctx guest.Context) {
		q := b.fitQuantum(ctx)
		ctx.Compute(q + 1)
	}},
	{name: "quantum-zero", probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Compute(b.fitQuantum(ctx))
		if q := b.m.tasks[ctx.PID()].quantumLeft; q != 0 {
			b.t.Errorf("quantum-zero: %d cycles of quantum left after burning all of it", q)
		}
		d := (b.room() + 1) / 2
		b.unsplit(ctx, "quantum-zero", d)
		ctx.Compute(d)
		// With no cap, the next split (the tick) is where the rival
		// finally gets the CPU.
		ctx.Compute(b.room() + 1_000)
	}},
	{name: "wake-preempt-pending", waker: true, probe: func(b *boundaryRun, ctx guest.Context) {
		pending := 0
		for i := 0; i < 20_000 && pending < 3; i++ {
			//simlint:errno-ok close has no fault armed; only its lump matters
			ctx.Syscall("close")
			if b.m.needResched {
				pending++
				b.logf("compute posted at %d with a wake preemption pending", b.m.clock.Now())
			}
			ctx.Compute(3_000)
		}
		if pending == 0 {
			b.t.Error("wake-preempt-pending: no compute was posted with a reschedule pending")
		}
	}},
	// A yield with the rival runnable gives up the CPU, so the compute
	// posted after it waits for the probe's next dispatch.
	{name: "after-yield", probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Yield()
		ctx.Compute(5_000)
	}},
	// The probe's first request, a clock read, runs from 3,000 to 4,500
	// cycles, so the barrier fires inside it and the compute it posts
	// next must wait for the next slice.
	{name: "barrier-pending", barrier: 4_000, probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.ClockNow()
		ctx.Compute(100_000)
	}},
	{name: "steps-left-2", probe: func(b *boundaryRun, ctx guest.Context) { b.probeSteps(ctx, 2) }},
	{name: "steps-left-3", probe: func(b *boundaryRun, ctx guest.Context) { b.probeSteps(ctx, 3) }},
}

// probeEvent schedules a probe event 10,000 cycles ahead, with nothing
// due before it, and posts a compute ending late cycles past it, then
// a second compute, which an event still due must precede. The event
// logs the clock it fires at.
func (b *boundaryRun) probeEvent(ctx guest.Context, late sim.Cycles) {
	const gap = 10_000
	b.clearAhead(ctx, gap+late)
	at := b.m.clock.Now() + gap
	b.m.queue.Schedule(at, "probe", func() {
		b.logf("probe event due at %d fired at %d", at, b.m.clock.Now())
	})
	if late == 0 {
		b.unsplit(ctx, "event-exact", gap)
	}
	ctx.Compute(gap + late)
	ctx.Compute(1_000)
}

// probeSteps leaves left steps of the MaxSteps budget and posts a
// compute that nothing else could split.
func (b *boundaryRun) probeSteps(ctx guest.Context, left uint64) {
	const d = 5_000
	b.clearAhead(ctx, d)
	if q := b.m.tasks[ctx.PID()].quantumLeft; q > 0 && q < d {
		ctx.Compute(q)
		b.clearAhead(ctx, d)
	}
	b.unsplit(ctx, "steps", d)
	b.m.cfg.MaxSteps = b.m.steps + left
	ctx.Compute(d)
	b.logf("probe ran past its compute at %d", b.m.clock.Now())
}

// runBoundary runs one case on one policy: the probe guest, a rival
// that keeps the runqueue busy, and for the wake case a nice -20
// sleeper. It returns the run's error text, the guests' log and
// renderFinal.
func runBoundary(t *testing.T, policy string, c boundaryCase) string {
	b := &boundaryRun{t: t, m: New(Config{Seed: 1, CPUHz: 1_000_000_000, MaxSteps: 50_000_000, SchedulerPolicy: policy})}
	spawn := func(name string, nice int, body guest.Routine) proc.PID {
		p, err := b.m.Spawn(SpawnConfig{Name: name, Content: name + " v1", Nice: nice, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		return p.PID
	}
	pids := []proc.PID{
		spawn("probe", 0, func(ctx guest.Context) {
			c.probe(b, ctx)
			b.logf("probe done at %d", ctx.ClockNow())
		}),
		spawn("rival", 0, func(ctx guest.Context) {
			for i := 0; i < 16; i++ {
				ctx.Compute(6_250_000)
				b.logf("rival %d at %d", i, ctx.ClockNow())
			}
		}),
	}
	if c.waker {
		pids = append(pids, spawn("waker", -20, func(ctx guest.Context) {
			for i := 0; i < 30; i++ {
				ctx.Sleep(700_000)
				b.logf("waker %d at %d", i, ctx.ClockNow())
				ctx.Compute(20_000)
			}
		}))
	}
	if c.barrier > 0 {
		if _, err := b.m.RunUntil(c.barrier); err != nil {
			t.Fatal(err)
		}
		b.logf("paused at %d", b.m.clock.Now())
	}
	err := b.m.Run()
	var out strings.Builder
	fmt.Fprintf(&out, "== %s/%s ==\nerr=%v\n", c.name, policy, err)
	for _, l := range b.log {
		out.WriteString(l + "\n")
	}
	out.WriteString(renderFinal(b.m, pids))
	return out.String()
}

// TestComputeBoundaries pins the edges of the inline compute burn: a
// compute ending exactly at an event and one cycle past it, one using
// exactly the quantum left and one cycle more, one posted with no
// quantum left (no cap), one posted with a wake preemption pending,
// one posted off the CPU after a yield, one posted with a RunUntil
// barrier pending, and one posted with two and with three steps of
// the MaxSteps budget left. Each runs on O1 and on CFS, and its error
// text, guest log and renderFinal must equal what the general path
// produced.
func TestComputeBoundaries(t *testing.T) {
	var got strings.Builder
	for _, c := range computeBoundaries {
		for _, policy := range []string{"o1", "cfs"} {
			got.WriteString(runBoundary(t, policy, c))
		}
	}
	if *update {
		if err := os.WriteFile(boundaryGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(boundaryGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotSecs, wantSecs := strings.Split(got.String(), "== "), strings.Split(string(want), "== ")
	if len(gotSecs) != len(wantSecs) {
		t.Fatalf("got %d sections, want %d", len(gotSecs), len(wantSecs))
	}
	for i := range gotSecs {
		if gotSecs[i] == wantSecs[i] {
			continue
		}
		gl, wl := strings.Split(gotSecs[i], "\n"), strings.Split(wantSecs[i], "\n")
		for j := 0; j < len(gl) && j < len(wl); j++ {
			if gl[j] != wl[j] {
				t.Errorf("section %q line %d:\n got %s\nwant %s", wl[0], j, gl[j], wl[j])
				break
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("section %q: got %d lines, want %d", wl[0], len(gl), len(wl))
		}
	}
}

// TestBoundCallsAllocateNothing pins that a Body guest's Compute +
// Call1 loop allocates nothing per RunUntil slice once its symbols are
// bound: the binding lookup, the PLT compute and every post reuse the
// task's own state.
func TestBoundCallsAllocateNothing(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	if _, err := m.Spawn(SpawnConfig{Name: "caller", Body: func(ctx guest.Context) {
		for i := uint64(0); ; i++ {
			ctx.Compute(1_000)
			ctx.Call1("sqrt", i)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	const slice = 1_000_000
	limit := sim.Cycles(0)
	next := func() {
		limit += slice
		if _, err := m.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	next() // binds sqrt, starts the coroutine and fills the event free list
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Fatalf("a bound Compute + Call1 loop allocated %v times per slice", n)
	}
}

// BenchmarkComputePost times one posted 1,000-cycle compute from a
// lone guest written as a Body and as a Step, and one Call1("sqrt")
// from a lone Body guest: the binding lookup, the PLT compute and
// sqrt's own compute. Nothing splits most of these computes, so post
// burns them itself. Compare runs at -cpu 1.
func BenchmarkComputePost(b *testing.B) {
	run := func(b *testing.B, sc SpawnConfig) {
		m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
		if _, err := m.Spawn(sc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("body", func(b *testing.B) {
		n := b.N
		run(b, SpawnConfig{Name: "body", Body: func(ctx guest.Context) {
			for range n {
				ctx.Compute(1_000)
			}
		}})
	})
	b.Run("step", func(b *testing.B) {
		n := b.N
		var step guest.Step
		step = func(ctx guest.Context, _ guest.Resume) guest.Step {
			if n == 0 {
				return nil
			}
			n--
			ctx.Compute(1_000)
			return step
		}
		run(b, SpawnConfig{Name: "step", Step: step})
	})
	b.Run("call1-sqrt", func(b *testing.B) {
		n := b.N
		run(b, SpawnConfig{Name: "call1", Body: func(ctx guest.Context) {
			for i := range n {
				ctx.Call1("sqrt", uint64(i))
			}
		}})
	})
}
