package device

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// drain runs the event loop until the queue empties or limit events fire.
func drain(t *testing.T, q *sim.EventQueue, c *sim.Clock, limit int) int {
	t.Helper()
	n := 0
	for q.Len() > 0 && n < limit {
		e := q.Pop()
		c.AdvanceTo(e.At)
		e.Fire()
		n++
	}
	return n
}

func TestNICDeliversAtRate(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000) // 1 MHz for easy math
	rng := sim.NewRand(1)
	var delivered int
	nic := NewNIC(q, c, rng, func() { delivered++ })
	nic.StartFlood(1000) // 1000 pps => every ~1000 cycles

	// Run one virtual second of events.
	for q.Len() > 0 && c.Now() < 1_000_000 {
		e := q.Pop()
		c.AdvanceTo(e.At)
		e.Fire()
	}
	nic.StopFlood()
	// With ±12.5% jitter the count should be near 1000.
	if delivered < 800 || delivered > 1200 {
		t.Fatalf("delivered = %d packets in 1s at 1000pps", delivered)
	}
	if nic.Received() != uint64(delivered) {
		t.Fatalf("Received() = %d, want %d", nic.Received(), delivered)
	}
}

func TestNICStopCancelsPending(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	nic := NewNIC(q, c, sim.NewRand(1), func() { t.Fatal("delivery after stop") })
	nic.StartFlood(10)
	if !nic.Active() {
		t.Fatal("not active after StartFlood")
	}
	nic.StopFlood()
	if nic.Active() {
		t.Fatal("active after StopFlood")
	}
	if q.Len() != 0 {
		t.Fatalf("pending events after stop: %d", q.Len())
	}
}

func TestNICZeroRateIsNoop(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	nic := NewNIC(q, c, sim.NewRand(1), func() {})
	nic.StartFlood(0)
	if nic.Active() || q.Len() != 0 {
		t.Fatal("zero-rate flood scheduled events")
	}
}

// TestNICRateExactWithoutJitter pins the truncation-drift fix: at a
// rate that does not divide the clock frequency, the fractional
// remainder must carry across packets so one virtual second delivers
// the requested count, not freq/(freq/rate) of it. With jitter
// disabled, 1 MHz at 3000 pps must deliver 3000±1 packets (the old
// integer-division schedule delivered 3003).
func TestNICRateExactWithoutJitter(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	var delivered int
	nic := NewNIC(q, c, sim.NewRand(1), func() { delivered++ })
	nic.StartFlood(3000)
	nic.jitter = false // white-box: isolate the rate schedule from its stochastic spread
	for q.Len() > 0 && c.Now() < 1_000_000 {
		e := q.Pop()
		c.AdvanceTo(e.At)
		e.Fire()
	}
	nic.StopFlood()
	if delivered < 2999 || delivered > 3001 {
		t.Fatalf("delivered = %d packets in 1 s at 3000 pps, want 3000±1", delivered)
	}
}

// TestNICRestartReplaysLikeFresh pins the StopFlood state-reset fix:
// after stop, a second StartFlood at the same rate must produce a
// delivery schedule bit-identical to a flood started on a fresh NIC
// whose random source sits at the same position. Stale rate/jitter or
// a carried fractional remainder would shift the restarted schedule.
func TestNICRestartReplaysLikeFresh(t *testing.T) {
	const rate = 777 // does not divide 1 MHz: exercises the fractional carry
	const warm = 50  // packets delivered before the stop
	const compare = 50

	intervals := func(nic *NIC, q *sim.EventQueue, c *sim.Clock, n int) []sim.Cycles {
		var out []sim.Cycles
		last := c.Now()
		for len(out) < n && q.Len() > 0 {
			e := q.Pop()
			c.AdvanceTo(e.At)
			before := int(nic.Received())
			e.Fire()
			if int(nic.Received()) > before {
				out = append(out, c.Now()-last)
				last = c.Now()
			}
		}
		return out
	}

	// NIC A: start, deliver warm packets, stop, start again.
	qa := sim.NewEventQueue()
	ca := sim.NewClock(1_000_000)
	na := NewNIC(qa, ca, sim.NewRand(99), func() {})
	na.StartFlood(rate)
	intervals(na, qa, ca, warm)
	na.StopFlood()
	na.StartFlood(rate)
	got := intervals(na, qa, ca, compare)

	// NIC B: fresh, with its random source advanced by the draws A's
	// first flood consumed (one per scheduleNext: the start plus one
	// per delivered packet).
	qb := sim.NewEventQueue()
	cb := sim.NewClock(1_000_000)
	rb := sim.NewRand(99)
	for i := 0; i < warm+1; i++ {
		rb.Int63()
	}
	nb := NewNIC(qb, cb, rb, func() {})
	nb.StartFlood(rate)
	want := intervals(nb, qb, cb, compare)

	if len(got) != compare || len(want) != compare {
		t.Fatalf("collected %d/%d intervals, want %d", len(got), len(want), compare)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("interval %d: restarted flood %d cycles, fresh flood %d cycles (stale StopFlood state)", i, got[i], want[i])
		}
	}
}

func TestNICRestartReplacesRate(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	var delivered int
	nic := NewNIC(q, c, sim.NewRand(1), func() { delivered++ })
	nic.StartFlood(10)
	nic.StartFlood(100000) // replaces; no double stream
	for q.Len() > 0 && c.Now() < 10_000 {
		e := q.Pop()
		c.AdvanceTo(e.At)
		e.Fire()
	}
	nic.StopFlood()
	if q.Len() != 0 {
		t.Fatalf("leftover events: %d", q.Len())
	}
	if delivered == 0 {
		t.Fatal("no deliveries after restart")
	}
}

// TestNICCloneMidFloodReplays pins the flood state a checkpoint
// carries: a NIC cloned mid-flood, at a rate that does not divide the
// clock, delivers every later packet at the original's arrival times,
// and StopFlood on the clone cancels its adopted pending delivery.
func TestNICCloneMidFloodReplays(t *testing.T) {
	const rate, warm, compare = 7_777, 40, 200
	q, c, rng := sim.NewEventQueue(), sim.NewClock(1_000_003), sim.NewRand(5)
	var got []sim.Cycles
	nic := NewNIC(q, c, rng, func() { got = append(got, c.Now()) })
	nic.StartFlood(rate)
	drain(t, q, c, warm)

	qC, cC, rngC := sim.NewEventQueue(), c.Clone(), rng.Clone()
	var cloned []sim.Cycles
	nc := nic.Clone(qC, cC, rngC, func() { cloned = append(cloned, cC.Now()) })
	for _, e := range qC.RestoreInto(q.Snapshot(), func(kind string, tag uint64) func() {
		fn, ok := nc.RestoreFire(tag)
		if kind != "nic-rx" || !ok {
			t.Fatalf("no restore callback for %s tag %d", kind, tag)
		}
		return fn
	}) {
		if FloodTag(e.Tag) {
			nc.AdoptPending(e)
		}
	}

	got = got[:0]
	drain(t, q, c, compare)
	drain(t, qC, cC, compare)
	if len(got) != compare || !slices.Equal(cloned, got) {
		t.Fatalf("clone delivered %d packets at\n%v\nthe original %d at\n%v", len(cloned), cloned, len(got), got)
	}
	nc.StopFlood()
	if qC.Len() != 0 {
		t.Fatalf("clone's StopFlood left %d events queued", qC.Len())
	}
}

// TestNICTransmitCounts pins the transmit ledger: a NIC with no
// transmit function (a machine outside any fabric) drops every frame,
// and once its owner sets one, each frame counts as carried or dropped
// by that function's verdict. A clone carries the counters and the
// address but not the function, which is the owner's to set again.
func TestNICTransmitCounts(t *testing.T) {
	nic := NewNIC(sim.NewEventQueue(), sim.NewClock(1_000_000), sim.NewRand(1), func() {})
	if nic.Transmit(Frame{Dst: 2}) {
		t.Fatal("a NIC with no transmit function carried a frame")
	}
	var seen []Addr
	nic.SetAddr(1)
	nic.SetTx(func(f Frame) bool {
		seen = append(seen, f.Dst)
		return f.Dst == 2
	})
	for _, dst := range []Addr{2, 3, 2} {
		nic.Transmit(Frame{Dst: dst})
	}
	if nic.Transmitted() != 2 || nic.TxDropped() != 2 || !slices.Equal(seen, []Addr{2, 3, 2}) {
		t.Fatalf("carried %d, dropped %d, handed %v; want 2, 2, [2 3 2]", nic.Transmitted(), nic.TxDropped(), seen)
	}
	c := nic.Clone(sim.NewEventQueue(), sim.NewClock(1_000_000), sim.NewRand(1), func() {})
	if c.Transmit(Frame{Dst: 2}) || c.Addr() != 1 || c.Transmitted() != 2 || c.TxDropped() != 3 {
		t.Fatalf("clone: addr %d, carried %d, dropped %d; want 1, 2, 3 with no transmit function", c.Addr(), c.Transmitted(), c.TxDropped())
	}
	if len(seen) != 3 {
		t.Fatalf("the clone's frame reached the original's transmit function")
	}
}

func TestDiskSerialises(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	d := NewDisk(q, c, 100, nil)
	var done []sim.Cycles
	d.Submit(func() { done = append(done, c.Now()) })
	d.Submit(func() { done = append(done, c.Now()) })
	d.Submit(func() { done = append(done, c.Now()) })
	drain(t, q, c, 100)
	if len(done) != 3 {
		t.Fatalf("completions = %d, want 3", len(done))
	}
	want := []sim.Cycles{100, 200, 300}
	for i, at := range done {
		if at != want[i] {
			t.Fatalf("completion %d at %d, want %d (serialised)", i, at, want[i])
		}
	}
	if d.IOs() != 3 {
		t.Fatalf("IOs = %d, want 3", d.IOs())
	}
}

// TestDiskWritebackHorizon pins the writeback throttling fix: no
// completion may land past now + maxWriteBacklog*latency, and the
// channel state must stay consistent so post-throttle writes still
// serialise correctly.
func TestDiskWritebackHorizon(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	const latency = 100
	var done []sim.Cycles
	d := NewDisk(q, c, latency, func() { done = append(done, c.Now()) })

	const n = maxWriteBacklog + 10
	for i := 0; i < n; i++ {
		d.SubmitWrite()
	}
	horizon := sim.Cycles(maxWriteBacklog * latency)
	drain(t, q, c, 10*n)
	if len(done) != n {
		t.Fatalf("completions = %d, want %d", len(done), n)
	}
	for i, at := range done {
		if at > horizon {
			t.Fatalf("write %d completed at %d, past the backlog horizon %d", i, at, horizon)
		}
	}
	// The unthrottled prefix serialises one latency apart; the
	// throttled tail is absorbed at the horizon.
	for i := 0; i < maxWriteBacklog; i++ {
		if want := sim.Cycles((i + 1) * latency); done[i] != want {
			t.Fatalf("write %d completed at %d, want %d (serialised)", i, done[i], want)
		}
	}
	for i := maxWriteBacklog; i < n; i++ {
		if done[i] != horizon {
			t.Fatalf("throttled write %d completed at %d, want horizon %d", i, done[i], horizon)
		}
	}
	if d.Writes() != n {
		t.Fatalf("Writes = %d, want %d", d.Writes(), n)
	}

	// After the backlog drains, the channel behaves normally again:
	// the next write completes one latency out.
	d.SubmitWrite()
	drain(t, q, c, 10)
	if want := horizon + latency; done[n] != want {
		t.Fatalf("post-drain write completed at %d, want %d", done[n], want)
	}
}

// TestDiskWritebackDueDuringCallback pins that the FIFO enters its
// next head before it runs the completion callback. The kernel's
// completion interrupt advances time and fires whatever falls due on
// the way, so a write completing inside it must already be queued.
func TestDiskWritebackDueDuringCallback(t *testing.T) {
	q, c := sim.NewEventQueue(), sim.NewClock(1_000_000)
	const latency, irq = 100, 10
	var done []sim.Cycles
	d := NewDisk(q, c, latency, func() {
		done = append(done, c.Now())
		// Burn irq cycles the way the kernel's advance does.
		for left := sim.Cycles(irq); left > 0; {
			chunk := left
			if at, ok := q.PeekTime(); ok {
				if at <= c.Now() {
					e := q.Pop()
					e.Fire()
					q.Release(e)
					continue
				}
				chunk = min(chunk, at-c.Now())
			}
			c.Advance(chunk)
			left -= chunk
		}
	})
	// The last of these completes at the horizon, 6,400; the write
	// submitted one cycle later is capped at 6,401, inside the
	// interrupt of the one before it.
	for range maxWriteBacklog {
		d.SubmitWrite()
	}
	c.AdvanceTo(1)
	d.SubmitWrite()
	for {
		at, ok := q.PeekTime()
		if !ok {
			break
		}
		if at > c.Now() {
			c.AdvanceTo(at)
		}
		e := q.Pop()
		e.Fire()
		q.Release(e)
	}
	if len(done) != maxWriteBacklog+1 {
		t.Fatalf("completions = %d, want %d", len(done), maxWriteBacklog+1)
	}
	if got := done[maxWriteBacklog-1:]; got[0] != 6_400 || got[1] != 6_401 {
		t.Fatalf("the last two writes completed at %v, want [6400 6401]", got)
	}
}

// diskFiring is one event fired on a disk's machine: a writeback
// completion or a tagged marker, and when it fired.
type diskFiring struct {
	what string
	at   sim.Cycles
}

// TestDiskSharedChannelFallback drives the write FIFO's one fallback,
// which no workload reaches: on a shared channel, a machine whose
// clock lags caps the channel's horizon below another machine's FIFO
// tail, so that machine's next write completes before its tail and
// must go straight into the event queue. B's completions must fire in
// the same (time, seq) order as when every write is its own event, and
// a Clone taken with FIFO-held and directly scheduled writes both
// pending must replay the same completions.
func TestDiskSharedChannelFallback(t *testing.T) {
	const latency = 100
	ch := NewDiskChannel()
	qA, cA := sim.NewEventQueue(), sim.NewClock(1_000_000)
	qB, cB := sim.NewEventQueue(), sim.NewClock(1_000_000)
	var got []diskFiring
	a := NewDisk(qA, cA, latency, func() {})
	b := NewDisk(qB, cB, latency, func() { got = append(got, diskFiring{"write", cB.Now()}) })
	a.Share(ch)
	b.Share(ch)
	var completes []sim.Cycles
	b.OnIO(func(at sim.Cycles) { completes = append(completes, at) })
	marker := func(log *[]diskFiring, c *sim.Clock, tag uint64) func() {
		return func() { *log = append(*log, diskFiring{fmt.Sprint("marker", tag), c.Now()}) }
	}

	// B, at t=10,000, fills the channel to its backlog horizon.
	cB.AdvanceTo(10_000)
	for range maxWriteBacklog {
		b.SubmitWrite()
	}
	qB.ScheduleTagged(10_100, "marker", 1, marker(&got, cB, 1))
	// A, still at t=0, is capped at its own horizon, below B's tail.
	a.SubmitWrite()
	if ch.writeBusy != 6_400 {
		t.Fatalf("A's write moved the channel to %d, want 6400", ch.writeBusy)
	}
	// B's next writes complete before its FIFO tail at 16,400.
	b.SubmitWrite()
	b.SubmitWrite()
	qB.ScheduleTagged(16_400, "marker", 2, marker(&got, cB, 2))
	if tail, next := completes[maxWriteBacklog-1], completes[maxWriteBacklog]; tail != 16_400 || next != 10_100 {
		t.Fatalf("B's tail at %d and next write at %d, want 16400 and 10100", tail, next)
	}
	if b.PendingWrites() != maxWriteBacklog {
		t.Fatalf("PendingWrites = %d, want the %d FIFO-held writes", b.PendingWrites(), maxWriteBacklog)
	}
	if want := 1 + 2 + 2; qB.Len() != want {
		t.Fatalf("B's queue holds %d events, want %d (FIFO head, two direct writes, two markers)", qB.Len(), want)
	}

	// The reference: every write of B scheduled as its own event, in
	// submission order, so each draws the sequence number it reserved.
	qR, cR := sim.NewEventQueue(), sim.NewClock(1_000_000)
	var want []diskFiring
	writeR := func() { want = append(want, diskFiring{"write", cR.Now()}) }
	for _, at := range completes[:maxWriteBacklog] {
		qR.Schedule(at, "disk-write", writeR)
	}
	qR.ScheduleTagged(10_100, "marker", 1, marker(&want, cR, 1))
	for _, at := range completes[maxWriteBacklog:] {
		qR.Schedule(at, "disk-write", writeR)
	}
	qR.ScheduleTagged(16_400, "marker", 2, marker(&want, cR, 2))

	// The clone, taken with both kinds of write pending.
	qC, cC := sim.NewEventQueue(), cB.Clone()
	var cloned []diskFiring
	c := b.Clone(qC, cC, func() { cloned = append(cloned, diskFiring{"write", cC.Now()}) })
	qC.RestoreInto(qB.Snapshot(), func(kind string, tag uint64) func() {
		if kind == "marker" {
			return marker(&cloned, cC, tag)
		}
		fn, ok := c.RestoreFire(tag)
		if !ok {
			t.Fatalf("no restore callback for disk-write tag %d", tag)
		}
		return fn
	})

	drain(t, qB, cB, 1000)
	drain(t, qR, cR, 1000)
	drain(t, qC, cC, 1000)
	if len(want) != maxWriteBacklog+2+2 {
		t.Fatalf("reference fired %d events, want %d", len(want), maxWriteBacklog+4)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("FIFO disk fired\n%v\nwant\n%v", got, want)
	}
	if !slices.Equal(cloned, want) {
		t.Fatalf("clone fired\n%v\nwant\n%v", cloned, want)
	}
	if b.PendingWrites() != 0 || c.PendingWrites() != 0 {
		t.Fatalf("writes left pending: %d and %d", b.PendingWrites(), c.PendingWrites())
	}
}

// TestDiskWritebackSteadyAllocs pins the FIFO's steady state: at a
// constant backlog, submitting one write and completing one allocates
// nothing.
func TestDiskWritebackSteadyAllocs(t *testing.T) {
	q, c := sim.NewEventQueue(), sim.NewClock(1_000_000)
	d := NewDisk(q, c, 100, func() {})
	for range maxWriteBacklog / 2 {
		d.SubmitWrite()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		d.SubmitWrite()
		e := q.Pop()
		c.AdvanceTo(e.At)
		e.Fire()
		q.Release(e)
	}); allocs > 0 {
		t.Fatalf("a submit/complete cycle allocates %.1f objects", allocs)
	}
	if d.PendingWrites() != maxWriteBacklog/2 || q.Len() != 1 {
		t.Fatalf("backlog %d writes in %d events, want %d in 1", d.PendingWrites(), q.Len(), maxWriteBacklog/2)
	}
}

// TestNICFloodStartStopAllocates pins Cancel's event recycling end to
// end: repeated flood start/stop cycles must not allocate.
func TestNICFloodStartStopAllocates(t *testing.T) {
	q := sim.NewEventQueue()
	c := sim.NewClock(1_000_000)
	nic := NewNIC(q, c, sim.NewRand(1), func() {})
	nic.StartFlood(1000)
	nic.StopFlood() // warm the free list
	if allocs := testing.AllocsPerRun(200, func() {
		nic.StartFlood(1000)
		nic.StopFlood()
	}); allocs > 0 {
		t.Fatalf("flood start/stop cycle allocates %.1f objects per run", allocs)
	}
}

func TestIRQString(t *testing.T) {
	for _, tc := range []struct {
		irq  IRQ
		want string
	}{{IRQTimer, "timer"}, {IRQNIC, "nic"}, {IRQDisk, "disk"}, {IRQ(99), "unknown"}} {
		if got := tc.irq.String(); got != tc.want {
			t.Errorf("IRQ(%d) = %q, want %q", int(tc.irq), got, tc.want)
		}
	}
}
