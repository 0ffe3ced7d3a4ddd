package kernel

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/proc"
	"repro/internal/sim"
)

// accessGolden holds TestAccessBoundaries' expected output. It was
// recorded at the commit before a resident hit could be served inside
// the posting call, so every section is what the general beginPosted
// → serviceAccess path does. Regenerate it only to move that bar on
// purpose:
//
//	go test ./internal/kernel -run TestAccessBoundaries -update
const accessGolden = "testdata/access_boundary.golden"

// pageAddr is the first byte of the probe's page i.
func pageAddr(i int) uint64 { return 0x10_0000 + uint64(i)*mem.DefaultPageSize }

// watchAddr is the address the tracer of a tracer case watches: inside
// the probe's page 0, but not its first byte.
var watchAddr = pageAddr(0) + 8

// logFaults logs the probe's fault counts after the access it names.
func (b *boundaryRun) logFaults(ctx guest.Context, what string) {
	minor, major := b.m.tasks[ctx.PID()].p.Space.Faults()
	b.logf("%s at %d: minor=%d major=%d", what, b.m.clock.Now(), minor, major)
}

// hit reports an access, about to be posted, that nothing could
// split or hold back: the setup each hit case depends on. Its page's
// residency shows in the fault counts logged after it.
func (b *boundaryRun) hit(ctx guest.Context, name string) {
	if b.m.current != b.m.tasks[ctx.PID()] || b.m.needResched || b.m.pauseReq || b.room() < accessCost {
		b.t.Errorf("%s: the access could be split or held back (room %d, resched %v)", name, b.room(), b.m.needResched)
	}
}

// trace attaches to the probe, waits for its stop, arms a watchpoint
// on watchAddr, and continues it at every stop until it exits.
func (b *boundaryRun) trace(ctx guest.Context, probe proc.PID) {
	if err := ctx.Ptrace(guest.PtraceAttach, probe, 0, 0); err != nil {
		b.t.Errorf("attach: %v", err)
		return
	}
	armed := false
	for {
		res, ok := ctx.Wait()
		if !ok || !res.Stopped {
			b.logf("tracer saw the probe exit")
			return
		}
		b.logf("tracer saw a stop at %d", b.m.clock.Now())
		if !armed {
			armed = true
			ctx.Ptrace(guest.PtracePokeUser, probe, guest.DR0, watchAddr)
			ctx.Ptrace(guest.PtracePokeUser, probe, guest.DR7, 1)
		}
		ctx.Ptrace(guest.PtraceCont, probe, 0, 0)
	}
}

// awaitTracer sleeps until the tracer has attached, stopped and
// continued the probe with its watchpoint armed.
func (b *boundaryRun) awaitTracer(ctx guest.Context) {
	p := b.m.tasks[ctx.PID()].p
	for i := 0; i < 100 && (p.Tracer == nil || !p.Debug.Enabled()); i++ {
		ctx.Sleep(50_000)
	}
	if p.Tracer == nil || !p.Debug.Enabled() {
		b.t.Error("the tracer never armed its watchpoint on the probe")
	}
}

var accessBoundaries = []boundaryCase{
	{name: "store-event-exact", probe: func(b *boundaryRun, ctx guest.Context) { b.probeAccessEvent(ctx, 0) }},
	{name: "store-event-minus-1", probe: func(b *boundaryRun, ctx guest.Context) { b.probeAccessEvent(ctx, 1) }},
	{name: "watched-hit", tracer: true, probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Store(pageAddr(0))
		b.awaitTracer(ctx)
		b.clearAhead(ctx, accessCost)
		ctx.Load(watchAddr)
		b.logFaults(ctx, "watched load")
		if st := b.m.Stats(ctx.PID()); st.DebugExceptions != 1 {
			b.t.Errorf("watched-hit: %d debug exceptions, want 1", st.DebugExceptions)
		}
	}},
	{name: "unwatched-traced-hit", tracer: true, probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Store(pageAddr(0))
		b.awaitTracer(ctx)
		b.clearAhead(ctx, accessCost)
		b.hit(ctx, "unwatched-traced-hit")
		ctx.Load(watchAddr + 8)
		b.logFaults(ctx, "unwatched load")
		if st := b.m.Stats(ctx.PID()); st.DebugExceptions != 0 {
			b.t.Errorf("unwatched-traced-hit: %d debug exceptions, want 0", st.DebugExceptions)
		}
	}},
	{name: "wake-preempt-pending", waker: true, probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Store(pageAddr(0))
		pending := 0
		for i := 0; i < 20_000 && pending < 3; i++ {
			//simlint:errno-ok close has no fault armed; only its lump matters
			ctx.Syscall("close")
			if b.m.needResched {
				pending++
				b.logf("store posted at %d with a wake preemption pending", b.m.clock.Now())
			}
			ctx.Store(pageAddr(0))
			ctx.Compute(3_000)
		}
		if pending == 0 {
			b.t.Error("wake-preempt-pending: no store was posted with a reschedule pending")
		}
	}},
	// The barrier falls inside one of the probe's clock reads, so the
	// store it posts next must wait for the next slice.
	{name: "barrier-pending", barrier: 100_000, probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Store(pageAddr(0))
		for i := 0; i < 1_000; i++ {
			ctx.ClockNow()
			if b.m.pauseReq {
				b.logf("store posted at %d with a barrier pending", b.m.clock.Now())
				ctx.Store(pageAddr(0))
				return
			}
		}
		b.t.Error("barrier-pending: no store was posted with the barrier pending")
	}},
	{name: "steps-left-1", probe: func(b *boundaryRun, ctx guest.Context) { b.probeAccessSteps(ctx, 1) }},
	{name: "steps-left-0", probe: func(b *boundaryRun, ctx guest.Context) { b.probeAccessSteps(ctx, 0) }},
	{name: "minor-fault", probe: func(b *boundaryRun, ctx guest.Context) {
		b.clearAhead(ctx, 10_000)
		ctx.Store(pageAddr(0))
		b.logFaults(ctx, "first store")
		ctx.Load(pageAddr(0) + 64)
		b.logFaults(ctx, "load")
	}},
	// Five pages in four pages of RAM: the fifth store evicts page 0,
	// dirty, and loading it back is a major fault.
	{name: "major-fault", pages: 4, probe: func(b *boundaryRun, ctx guest.Context) {
		for i := 0; i < 5; i++ {
			ctx.Store(pageAddr(i))
		}
		b.logFaults(ctx, "five stores")
		ctx.Load(pageAddr(0))
		b.logFaults(ctx, "load of page 0")
		ctx.Load(pageAddr(0))
		b.logFaults(ctx, "second load of page 0")
	}},
	// Hits keep the LRU order and the dirty bits: page 1 is loaded
	// clean and stored to on a hit, page 0 is refreshed by a load hit,
	// so the stores that follow evict 2, 3 and then 1 (dirty), and the
	// loads after them hit page 0 and fault pages 1 and 2 back in.
	{name: "load-after-eviction", pages: 4, probe: func(b *boundaryRun, ctx guest.Context) {
		ctx.Store(pageAddr(0))
		for i := 1; i < 4; i++ {
			ctx.Load(pageAddr(i))
		}
		ctx.Store(pageAddr(1))
		ctx.Load(pageAddr(0))
		b.logFaults(ctx, "four pages in")
		for i := 4; i < 7; i++ {
			ctx.Store(pageAddr(i))
			b.logFaults(ctx, "evicting store")
		}
		ctx.Load(pageAddr(6))
		b.logFaults(ctx, "load of page 6")
		for _, i := range []int{0, 1, 2} {
			ctx.Load(pageAddr(i))
			b.logFaults(ctx, "load after eviction")
		}
	}},
}

// probeAccessEvent stores to a resident page with a probe event due
// accessCost−early cycles ahead and nothing due before it, then
// computes, which an event still due must precede. The event logs the
// clock it fires at.
func (b *boundaryRun) probeAccessEvent(ctx guest.Context, early sim.Cycles) {
	ctx.Store(pageAddr(0))
	b.clearAhead(ctx, accessCost)
	at := b.m.clock.Now() + accessCost - early
	b.m.queue.Schedule(at, "probe", func() {
		b.logf("probe event due at %d fired at %d", at, b.m.clock.Now())
	})
	ctx.Store(pageAddr(0))
	b.logFaults(ctx, "store done")
	ctx.Compute(1_000)
}

// probeAccessSteps leaves left steps of the MaxSteps budget and posts
// a store that hits a resident page with nothing due within it.
func (b *boundaryRun) probeAccessSteps(ctx guest.Context, left uint64) {
	ctx.Store(pageAddr(0))
	b.clearAhead(ctx, accessCost)
	b.hit(ctx, "steps")
	b.m.cfg.MaxSteps = b.m.steps + left
	ctx.Store(pageAddr(0))
	b.logFaults(ctx, "probe ran past its store")
}

// TestAccessBoundaries pins the edges of serving a resident hit where
// it is posted: a store ending exactly at an event and one overlapping
// it by a cycle, a watched and an unwatched hit of a traced task, a
// store posted with a wake preemption or a RunUntil barrier pending,
// one posted with one and with no step of the MaxSteps budget left,
// and the faults around hits: a minor fault, a major fault, and loads
// after evictions that the hits' LRU updates and dirty bits decide.
// Each runs on O1 and on CFS, and its error text, guest log and
// renderFinal must equal what the general path produced.
func TestAccessBoundaries(t *testing.T) {
	checkBoundaries(t, accessGolden, accessBoundaries)
}

// TestStoreHitsAllocateNothing pins that a Body guest's store-hit loop
// allocates nothing per RunUntil slice.
func TestStoreHitsAllocateNothing(t *testing.T) {
	m := New(Config{Seed: 1, CPUHz: 1_000_000_000})
	if _, err := m.Spawn(SpawnConfig{Name: "storer", Body: func(ctx guest.Context) {
		for i := 0; ; i++ {
			ctx.Store(pageAddr(i % 8))
		}
	}}); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	const slice = 20_000
	limit := sim.Cycles(0)
	next := func() {
		limit += slice
		if _, err := m.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	next() // touches the pages, starts the coroutine and fills the event free list
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Fatalf("a store-hit loop allocated %v times per slice", n)
	}
}

// BenchmarkAccessPost times one posted store from a lone guest: a hit
// on one of eight resident pages from a Body guest and from a Step
// guest, and a Body guest's minor fault on a fresh page each time.
// Compare runs at -cpu 1.
func BenchmarkAccessPost(b *testing.B) {
	run := func(b *testing.B, sc SpawnConfig) {
		m := New(Config{Seed: 1, CPUHz: 1_000_000_000, PhysMemBytes: 1 << 40})
		if _, err := m.Spawn(sc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("body-hit", func(b *testing.B) {
		n := b.N
		run(b, SpawnConfig{Name: "body", Body: func(ctx guest.Context) {
			for i := range n {
				ctx.Store(pageAddr(i % 8))
			}
		}})
	})
	b.Run("step-hit", func(b *testing.B) {
		n, i := b.N, 0
		var step guest.Step
		step = func(ctx guest.Context, _ guest.Resume) guest.Step {
			if i == n {
				return nil
			}
			ctx.Store(pageAddr(i % 8))
			i++
			return step
		}
		run(b, SpawnConfig{Name: "step", Step: step})
	})
	b.Run("body-minor", func(b *testing.B) {
		n := b.N
		run(b, SpawnConfig{Name: "minor", Body: func(ctx guest.Context) {
			for i := range n {
				ctx.Store(pageAddr(i))
			}
		}})
	})
}
