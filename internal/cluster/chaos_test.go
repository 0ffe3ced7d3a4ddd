package cluster

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// pacedSender spawns a guest offering `frames` frames to the peer at
// a fixed inter-send gap, ignoring wire verdicts — the link counters
// are the test's ground truth.
func pacedSender(peerIdx int, frames int, gap sim.Cycles) func(*Cluster, *kernel.Machine) error {
	return func(c *Cluster, m *kernel.Machine) error {
		dst := c.AddrOf(peerIdx)
		_, err := m.Spawn(kernel.SpawnConfig{
			Name:    "pacer",
			Content: "paced sender v1",
			Body: func(ctx guest.Context) {
				for i := 0; i < frames; i++ {
					//simlint:errno-ok the chaos harness asserts on billing invariants, not per-send errno
					ctx.NetSend(guest.Frame{Dst: dst, Flow: uint32(i)})
					ctx.Sleep(gap)
				}
			},
		})
		return err
	}
}

// drainDaemon spawns a never-exiting receive loop — the standard
// Service-machine peer for crash and flap scenarios.
func drainDaemon(c *Cluster, m *kernel.Machine) error {
	_, err := m.Spawn(kernel.SpawnConfig{
		Name:    "drain",
		Content: "drain daemon v1",
		Body: func(ctx guest.Context) {
			seen := uint64(0)
			for {
				seen = ctx.NetRxWait(seen)
				for {
					if _, ok, err := ctx.NetRecv(); !ok || err != nil {
						break
					}
				}
			}
		},
	})
	return err
}

// checkBalanced asserts every declared link direction's conservation
// identity: Sent = Delivered + Dropped + Queued.
func checkBalanced(t *testing.T, cl *Cluster) {
	t.Helper()
	for i := 0; i < cl.Links(); i++ {
		for _, l := range []*Link{cl.Link(i), cl.Link(i).Reverse()} {
			if l.Sent() != l.Delivered()+l.Dropped()+l.Queued() {
				t.Errorf("link %d: sent %d != delivered %d + dropped %d + queued %d",
					i, l.Sent(), l.Delivered(), l.Dropped(), l.Queued())
			}
		}
	}
}

// TestCrashOfBlockedMachineDoesNotDeadlockBarrier is the regression
// pin for the lockstep barrier: a machine parked in NetRxWait reports
// no pending work, so before the fix a CrashAt on it could leave the
// barrier with tmin = none and Run would spin or stall forever. The
// pending crash must count as scheduled work and fire even though the
// machine's own event queue is silent.
func TestCrashOfBlockedMachineDoesNotDeadlockBarrier(t *testing.T) {
	crashAt := sim.Cycles(testHz / 100) // 10 ms in, machine 1 still blocked
	cl, err := New(Config{
		Machines: []MachineSpec{
			{
				Config: kernel.Config{Seed: 201, CPUHz: testHz},
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					return spawnBusy(m, "job", 0.05)
				},
			},
			{
				Config:  kernel.Config{Seed: 202, CPUHz: testHz},
				Service: true,
				CrashAt: crashAt,
				Boot:    drainDaemon,
			},
		},
		Links: []LinkSpec{{From: 0, To: 1, LatencyUs: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run = %v, want clean completion through the crash", err)
	}
	if !cl.Crashed(1) {
		t.Error("blocked machine's scheduled crash never fired")
	}
	if !cl.Done(1) {
		t.Error("crashed machine not marked done")
	}
	checkBalanced(t, cl)
}

// TestCrashSeversInFlightFrames pins the teardown semantics: frames
// offered to a crashed destination (including frames already on the
// wire whose arrival lands past the crash instant) become counted
// drops, never silent losses, so the per-link conservation identity
// survives the crash.
func TestCrashSeversInFlightFrames(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	crashAt := sim.Cycles(testHz / 50) // 20 ms
	const frames = 100
	cl, err := New(Config{
		Machines: []MachineSpec{
			{
				Config: kernel.Config{Seed: 211, CPUHz: testHz},
				// 100 frames, one every 500 µs: the stream spans 50 ms,
				// straddling the 20 ms crash.
				Boot: pacedSender(1, frames, 500*perUs),
			},
			{
				Config:  kernel.Config{Seed: 212, CPUHz: testHz},
				Service: true,
				CrashAt: crashAt,
				Boot:    drainDaemon,
			},
		},
		Links: []LinkSpec{{From: 0, To: 1, LatencyUs: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Crashed(1) {
		t.Fatal("receiver never crashed")
	}
	l := cl.Link(0)
	if l.Delivered() == 0 {
		t.Error("nothing delivered before the crash")
	}
	if l.Dropped() == 0 {
		t.Error("no drops after the crash — severed frames went uncounted")
	}
	if l.Sent() != frames {
		t.Errorf("Sent = %d, want %d (the sender machine outlives the crash and keeps offering)", l.Sent(), frames)
	}
	checkBalanced(t, cl)
}

// TestCrashRestartRunsSecondIncarnation pins the reboot path: with
// RestartAfter armed the machine comes back with fresh task state,
// the incarnation list grows, frames flow again after the outage, and
// both incarnations' deliveries plus the outage drops balance the
// sender's offers.
func TestCrashRestartRunsSecondIncarnation(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	const frames = 100
	cl, err := New(Config{
		Machines: []MachineSpec{
			{
				Config: kernel.Config{Seed: 221, CPUHz: testHz},
				Boot:   pacedSender(1, frames, 500*perUs),
			},
			{
				Config:       kernel.Config{Seed: 222, CPUHz: testHz},
				Service:      true,
				CrashAt:      sim.Cycles(testHz / 50),  // down at 20 ms
				RestartAfter: sim.Cycles(testHz / 100), // back at 30 ms
				Boot:         drainDaemon,
			},
		},
		Links: []LinkSpec{{From: 0, To: 1, LatencyUs: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Crashed(1) {
		t.Fatal("receiver never crashed")
	}
	incs := cl.Incarnations(1)
	if len(incs) != 2 {
		t.Fatalf("incarnations = %d, want 2 (crashed original + reboot)", len(incs))
	}
	first, second := incs[0], incs[1]
	if first.NIC().Received() == 0 || second.NIC().Received() == 0 {
		t.Errorf("received %d/%d frames across incarnations, want both nonzero",
			first.NIC().Received(), second.NIC().Received())
	}
	l := cl.Link(0)
	if l.Dropped() == 0 {
		t.Error("no drops across a 10 ms outage inside a continuous stream")
	}
	if got := first.NIC().Received() + second.NIC().Received(); got != l.Delivered() {
		t.Errorf("incarnations received %d, link delivered %d — deliveries leaked across the reboot", got, l.Delivered())
	}
	checkBalanced(t, cl)
}

// TestRestartExpiresStrandedDRRBacklog is the regression pin for the
// crash-during-DRR-service strand: the receiver dies while frames are
// still parked in its pipe's backlog, the kick timer dies with it, and
// before the fix the residual Queued frames sat stranded through the
// outage and were then served into the *fresh* incarnation once
// restart re-homed the timer — stale traffic addressed to a machine
// that no longer exists. Restart must instead expire the dead
// incarnation's backlog into the drop ledger: Queued drains to zero,
// the reboot sees none of the pre-crash frames, and the conservation
// identity holds at every instant.
func TestRestartExpiresStrandedDRRBacklog(t *testing.T) {
	const frames = 100
	cl, err := New(strandedDRRCfg(frames))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Crashed(1) {
		t.Fatal("receiver never crashed")
	}
	incs := cl.Incarnations(1)
	if len(incs) != 2 {
		t.Fatalf("incarnations = %d, want 2", len(incs))
	}
	l := cl.Link(0)
	if l.Queued() != 0 {
		t.Errorf("Queued = %d after the run, want 0 — restart stranded the dead pipe's backlog", l.Queued())
	}
	if l.Delivered() == 0 {
		t.Error("nothing delivered before the crash")
	}
	if l.Dropped() == 0 {
		t.Error("no drops — the expired backlog went uncounted")
	}
	if got := incs[1].NIC().Received(); got != 0 {
		t.Errorf("fresh incarnation received %d frames, want 0 — pre-crash backlog leaked across the reboot", got)
	}
	if got := incs[0].NIC().Received(); got != l.Delivered() {
		t.Errorf("first incarnation received %d, link delivered %d", got, l.Delivered())
	}
	if l.Sent() != frames {
		t.Errorf("Sent = %d, want %d", l.Sent(), frames)
	}
	checkBalanced(t, cl)
}

// strandedDRRCfg is TestRestartExpiresStrandedDRRBacklog's fabric: a
// sender bursts frames into a DRR link at twice its rate, goes quiet,
// and lingers while the receiver dies with the backlog standing and
// reboots.
func strandedDRRCfg(frames int) Config {
	perUs := sim.Cycles(testHz / 1_000_000)
	burstThenLinger := func(c *Cluster, m *kernel.Machine) error {
		dst := c.AddrOf(1)
		_, err := m.Spawn(kernel.SpawnConfig{
			Name:    "burst",
			Content: "burst sender v1",
			Body: func(ctx guest.Context) {
				// 100 frames at 50 µs apart: 2x the wire's 10k pps, so a
				// deep backlog stands when the receiver dies at 7 ms —
				// after the sender went quiet at 5 ms, which is what
				// leaves the strand to the kick timer alone.
				for i := 0; i < frames; i++ {
					//simlint:errno-ok the chaos harness asserts on billing invariants, not per-send errno
					ctx.NetSend(guest.Frame{Dst: dst, Flow: uint32(i % 4)})
					ctx.Sleep(50 * perUs)
				}
				// Outlive the 12 ms reboot so the restart actually fires
				// and any stale frame would have time to leak.
				ctx.Sleep(25_000 * perUs)
			},
		})
		return err
	}
	return Config{
		Machines: []MachineSpec{
			{
				Name:   "sender",
				Config: kernel.Config{Seed: 231, CPUHz: testHz},
				Boot:   burstThenLinger,
			},
			{
				Name:         "receiver",
				Config:       kernel.Config{Seed: 232, CPUHz: testHz},
				Service:      true,
				CrashAt:      sim.Cycles(testHz * 7 / 1_000), // down at 7 ms, backlog standing
				RestartAfter: sim.Cycles(testHz * 5 / 1_000), // back at 12 ms
				Boot:         drainDaemon,
			},
		},
		Links: []LinkSpec{{
			From: 0, To: 1, LatencyUs: 200,
			PacketsPerSecond: 10_000, QueueDepth: 96, Qdisc: QdiscDRR,
		}},
	}
}

// TestCrashedDRRHomeHandsOnItsKick runs homeRebootCfg with no reboot:
// the shared DRR pipe's kick-timer home crashes while frames bound for
// the peer stand in the backlog and stays down. The kick must move to
// a live member and drain them; before, it died with the home, and the
// run ended with the peer's link at sent 160, delivered 46, dropped
// 82, queued 32.
func TestCrashedDRRHomeHandsOnItsKick(t *testing.T) {
	cfg := homeRebootCfg()
	cfg.Machines[2].RestartAfter = 0
	checkDrained(t, cfg)
}

// TestFinishedDRRHomeHandsOnItsKick is the same fabric with no crash:
// the home's sink exits after 5 deliveries, so the home finishes while
// the peer's backlog stands. Before, its kick stayed on the finished
// home and the peer's link ended at sent 160, delivered 52, dropped
// 76, queued 32.
func TestFinishedDRRHomeHandsOnItsKick(t *testing.T) {
	cfg := homeRebootCfg()
	home := &cfg.Machines[2]
	home.CrashAt = 0
	home.RestartAfter = 0
	home.Boot = func(_ *Cluster, m *kernel.Machine) error {
		step, fork := guest.Resumable(snapWatcher{limit: 5})
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "sink", Content: "sink v1", Step: step, Fork: fork,
		})
		return err
	}
	checkDrained(t, cfg)
}

// checkDrained runs a homeRebootCfg variant whose home goes down for
// good and requires every link direction to end balanced with nothing
// queued, and the peer to have received every frame its link
// delivered.
func checkDrained(t *testing.T, cfg Config) {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cl.Incarnations(2)) != 1 {
		t.Fatalf("home has %d incarnations, want 1", len(cl.Incarnations(2)))
	}
	for i := 0; i < cl.Links(); i++ {
		for d, l := range []*Link{cl.Link(i), cl.Link(i).Reverse()} {
			if l.Queued() != 0 {
				t.Errorf("link%d.%d: sent %d, delivered %d, dropped %d, queued %d; want nothing queued after Run",
					i, d, l.Sent(), l.Delivered(), l.Dropped(), l.Queued())
			}
		}
	}
	checkBalanced(t, cl)
	if got, want := cl.Machine(3).NIC().Received(), cl.Link(1).Delivered(); got != want {
		t.Errorf("peer received %d frames, its link delivered %d", got, want)
	}
}

// TestParkedFrameWaitsOutTheOutage pins a DRR frame offered inside an
// outage window after its wire idled: it leaves the wire no earlier
// than the window's end. The sender's first frame commits the idle
// 1,000-pps wire through ~1.1 ms; its second, offered at ~2 ms inside
// the 1.9–2.65 ms outage, parks in the backlog. Before the fix the
// park left the committed horizon where the idle wire had left it, so
// the kick served the frame from there: it left the wire at 1,987,862
// cycles, inside the outage and before it was offered.
func TestParkedFrameWaitsOutTheOutage(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	cl, err := New(Config{
		Machines: []MachineSpec{
			{Name: "home", Config: kernel.Config{Seed: 241, CPUHz: testHz}, Service: true, Boot: drainDaemon},
			{Name: "sender", Config: kernel.Config{Seed: 242, CPUHz: testHz}, Boot: pacedSender(0, 2, 2_000*perUs)},
		},
		Links: []LinkSpec{{
			From: 1, To: 0, PacketsPerSecond: 1_000, Qdisc: QdiscDRR,
			Flap: &FlapSpec{FirstDownUs: 1_900, DownUs: 750},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	l := cl.Link(0)
	if l.Sent() != 2 || l.Delivered() != 2 || l.Queued() != 0 {
		t.Errorf("link: sent %d, delivered %d, dropped %d, queued %d; want both frames delivered",
			l.Sent(), l.Delivered(), l.Dropped(), l.Queued())
	}
	// The last frame served leaves the wire at the committed horizon.
	if left, end := l.pipe.busyUntil, 2_650*perUs; left <= end {
		t.Errorf("the parked frame left the wire at cycle %d, before the outage ended at %d", left, end)
	}
}

// TestKickArmedInTheHomesPastRuns pins the lockstep barrier against a
// DRR kick timer armed a lookahead or more in its home's past. The
// home exports a shared swap device at 600 µs of service per remote
// I/O, and runs first in every round: once the hog swaps, each service
// is an interrupt lump that overruns the round's 50 µs barrier and
// leaves the home idle far ahead. In those rounds the sender offers
// frame pairs for the peer to the idle 10,000-pps bottleneck homed on
// the home: the first goes straight out, the second parks behind it,
// and the kick is armed at the ~100 µs horizon, behind the home's
// clock. Without the barrier's clamp every later round's target (the
// kick's time plus the lookahead) lies behind the home's clock, so no
// round runs the kick and Run never returns.
func TestKickArmedInTheHomesPastRuns(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	pairs := func(c *Cluster, m *kernel.Machine) error {
		dst := c.AddrOf(3)
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "pairs", Content: "pair sender v1",
			Body: func(ctx guest.Context) {
				for i := 0; i < 30; i++ {
					//simlint:errno-ok the test asserts on the link ledger, not per-send errno
					ctx.NetSend(guest.Frame{Dst: dst})
					//simlint:errno-ok the test asserts on the link ledger, not per-send errno
					ctx.NetSend(guest.Frame{Dst: dst})
					ctx.Sleep(300 * perUs)
				}
			},
		})
		return err
	}
	hog := func(_ *Cluster, m *kernel.Machine) error {
		step, fork := guest.Resumable(swapHog{pages: 40, touches: 40})
		_, err := m.Spawn(kernel.SpawnConfig{Name: "memhog", Content: "memhog v1", Step: step, Fork: fork})
		return err
	}
	cl, err := New(Config{
		Machines: []MachineSpec{
			{Name: "home", Config: kernel.Config{Seed: 241, CPUHz: testHz}, Service: true, Boot: drainDaemon},
			{Name: "hog", Config: kernel.Config{Seed: 242, CPUHz: testHz, PhysMemBytes: 32 * 4096}, Boot: hog},
			{Name: "sender", Config: kernel.Config{Seed: 243, CPUHz: testHz}, Boot: pairs},
			{Name: "peer", Config: kernel.Config{Seed: 244, CPUHz: testHz}, Service: true, Boot: drainDaemon},
		},
		Links: []LinkSpec{
			{From: 2, To: 0, LatencyUs: 50, PacketsPerSecond: 10_000, Qdisc: QdiscDRR, Bottleneck: "b"},
			{From: 2, To: 3, LatencyUs: 50, PacketsPerSecond: 10_000, Qdisc: QdiscDRR, Bottleneck: "b"},
		},
		SharedSwap: &SharedSwapSpec{Host: 0, Clients: []int{1}, ServiceUs: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round by round, so a wedged barrier fails instead of hanging.
	p, behind := cl.Link(0).pipe, 0
	for n := 0; ; n++ {
		if n == 1_000 {
			cl.Shutdown()
			t.Fatalf("no end after %d rounds, frontier %d", n, cl.Now())
		}
		if p.kickArmed && p.busyUntil+cl.lookahead <= cl.Machine(0).Clock().Now() {
			behind++
		}
		st, err := cl.round(0)
		if err != nil {
			t.Fatal(err)
		}
		if st == roundAllDone {
			break
		}
	}
	if behind == 0 {
		t.Fatal("no round started with a kick a lookahead behind its home; the fabric no longer tests the clamp")
	}
	if l := cl.Link(1); l.Sent() != 60 || l.Delivered() != 60 || l.Queued() != 0 {
		t.Errorf("link to the peer: sent %d, delivered %d, dropped %d, queued %d; want every frame delivered",
			l.Sent(), l.Delivered(), l.Dropped(), l.Queued())
	}
}

// TestRunUntilPausesOverOverdueWork pins RunUntil against work due in
// the past of a member that already stands at the stop barrier. The
// home runs first and reaches the 480 µs barrier; then the sender
// parks a frame in the DRR wire's 0–250 µs outage, and the kick lands
// at 250 µs, in the home's past. Before the fix every later round
// took that kick as its base, clamped its target to the barrier the
// home had already reached, and ran nothing, so RunUntil never
// returned.
func TestRunUntilPausesOverOverdueWork(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	cl, err := New(Config{
		Machines: []MachineSpec{
			{Name: "home", Config: kernel.Config{Seed: 251, CPUHz: testHz}, Service: true, Boot: drainDaemon},
			{Name: "sender", Config: kernel.Config{Seed: 252, CPUHz: testHz}, Boot: pacedSender(0, 1, 0)},
		},
		Links: []LinkSpec{{From: 1, To: 0, Qdisc: QdiscDRR, Flap: &FlapSpec{DownUs: 250}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round by round, so a wedged barrier fails instead of hanging.
	for n := 0; ; n++ {
		if n == 100 {
			cl.Shutdown()
			t.Fatalf("no pause after %d rounds, frontier %d", n, cl.Now())
		}
		st, err := cl.round(480 * perUs)
		if err != nil {
			t.Fatal(err)
		}
		if st == roundAllDone {
			t.Fatal("the fabric finished before the barrier")
		}
		if st == roundPaused {
			break
		}
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if l := cl.Link(0); l.Sent() != 1 || l.Delivered() != 1 {
		t.Errorf("link: sent %d, delivered %d, dropped %d, queued %d; want the frame delivered",
			l.Sent(), l.Delivered(), l.Dropped(), l.Queued())
	}
}

// TestFlapWindowDropsThenResumes pins FIFO flap semantics: offers
// inside a scheduled outage window are counted drops, offers before
// and after are carried, and the ledger stays balanced.
func TestFlapWindowDropsThenResumes(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	const frames = 100
	cl, err := New(Config{
		Machines: []MachineSpec{
			{
				Config: kernel.Config{Seed: 231, CPUHz: testHz},
				// One frame every 500 µs for 50 ms, across a single
				// 10 ms outage starting at 15 ms.
				Boot: pacedSender(1, frames, 500*perUs),
			},
			{
				Config:  kernel.Config{Seed: 232, CPUHz: testHz},
				Service: true,
				Boot:    drainDaemon,
			},
		},
		Links: []LinkSpec{{
			From: 0, To: 1, LatencyUs: 300,
			Flap: &FlapSpec{FirstDownUs: 15_000, DownUs: 10_000},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	l := cl.Link(0)
	if l.Dropped() == 0 {
		t.Error("no drops across a 10 ms outage inside a continuous stream")
	}
	if l.Delivered() == 0 {
		t.Error("nothing delivered outside the outage window")
	}
	// ~20 of 100 offers land inside the window (10 ms of a 50 ms
	// stream at 2k pps); everything else must be carried.
	if l.Dropped() >= l.Delivered() {
		t.Errorf("dropped %d >= delivered %d for a window covering ~20%% of the stream", l.Dropped(), l.Delivered())
	}
	checkBalanced(t, cl)
}

// TestPeriodicFlapRepeats pins the periodic form: with UpUs set the
// outage recurs, so a stream long enough to span several periods
// takes drops from more than one window — strictly more than the same
// stream loses to a single window of the same length.
func TestPeriodicFlapRepeats(t *testing.T) {
	perUs := sim.Cycles(testHz / 1_000_000)
	const frames = 100
	build := func(flap *FlapSpec) *Link {
		cl, err := New(Config{
			Machines: []MachineSpec{
				{
					Config: kernel.Config{Seed: 241, CPUHz: testHz},
					Boot:   pacedSender(1, frames, 500*perUs),
				},
				{
					Config:  kernel.Config{Seed: 242, CPUHz: testHz},
					Service: true,
					Boot:    drainDaemon,
				},
			},
			Links: []LinkSpec{{From: 0, To: 1, LatencyUs: 300, Flap: flap}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		checkBalanced(t, cl)
		return cl.Link(0)
	}
	single := build(&FlapSpec{FirstDownUs: 5_000, DownUs: 5_000})
	periodic := build(&FlapSpec{FirstDownUs: 5_000, DownUs: 5_000, UpUs: 10_000})
	if single.Dropped() == 0 || periodic.Dropped() == 0 {
		t.Fatalf("drops single=%d periodic=%d, want both nonzero", single.Dropped(), periodic.Dropped())
	}
	if periodic.Dropped() <= single.Dropped() {
		t.Errorf("periodic windows dropped %d <= single window's %d, want more (the outage recurs)",
			periodic.Dropped(), single.Dropped())
	}
}

// TestChaosSpecValidation covers the construction-time checks the
// chaos layer added: restart without a crash, crash under shared
// swap, flap on a shared bottleneck, and a zero-length outage.
func TestChaosSpecValidation(t *testing.T) {
	mspec := func(name string) MachineSpec {
		return MachineSpec{Name: name, Config: kernel.Config{Seed: 1, CPUHz: testHz}}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "restart without crash",
			cfg: Config{Machines: []MachineSpec{
				{Name: "a", Config: kernel.Config{Seed: 1, CPUHz: testHz}, RestartAfter: 100},
			}},
			want: "RestartAfter without CrashAt",
		},
		{
			name: "crash under shared swap",
			cfg: Config{
				Machines: []MachineSpec{
					{Name: "a", Config: kernel.Config{Seed: 1, CPUHz: testHz}, CrashAt: 100},
					mspec("b"),
				},
				SharedSwap: &SharedSwapSpec{Host: 1, Clients: []int{0}},
			},
			want: "shared swap",
		},
		{
			name: "flap on a bottleneck",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links: []LinkSpec{{
					From: 0, To: 1, Bottleneck: "up", PacketsPerSecond: 1000,
					Flap: &FlapSpec{FirstDownUs: 10, DownUs: 10},
				}},
			},
			want: "bottleneck",
		},
		{
			name: "zero-length outage",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links: []LinkSpec{{
					From: 0, To: 1,
					Flap: &FlapSpec{FirstDownUs: 10},
				}},
			},
			want: "DownUs 0",
		},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
