package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// snapSender is a forkable flyweight pktgen: it transmits addressed
// frames through the kernel routing table (NetSend — the transport a
// cluster restore preserves) with jittered pacing off the machine rng.
type snapSender struct {
	dst    guest.Addr
	flow   uint32
	frames int
	gap    sim.Cycles
	i      int
	drops  int
	sent   bool // the last post was a send, not a sleep
}

func (g *snapSender) Activate(ctx guest.Context, r guest.Resume) bool {
	if g.sent {
		if r.Err != nil || !r.OK {
			g.drops++
		}
		g.sent = false
		ctx.Sleep(ctx.Rand().Jitter(g.gap, g.gap/4+1))
		return true
	}
	if g.i >= g.frames {
		return false
	}
	g.i++
	g.sent = true
	//simlint:errno-ok resumable post: the outcome arrives in the next activation's Resume
	ctx.NetSend(guest.Frame{Dst: g.dst, Flow: g.flow})
	return true
}

// snapWatcher is a forkable sink: it blocks in NetRxWait, consuming
// deliveries on a Service machine so the cluster retires it at
// quiescence, or exits once it has seen limit deliveries (limit 0
// waits forever).
type snapWatcher struct {
	seen    uint64
	started bool
	limit   uint64
}

func (w *snapWatcher) Activate(ctx guest.Context, r guest.Resume) bool {
	if w.started {
		w.seen = r.Ret
	}
	if w.limit > 0 && w.seen >= w.limit {
		return false
	}
	w.started = true
	ctx.NetRxWait(w.seen)
	return true
}

// snapClusterCfg builds a three-machine fabric dense in cluster
// mechanisms: a pktgen sender, a faulted forwarding router (read and
// sendto faults exercise the retry paths across the checkpoint), and
// a sink receiver, joined by a finite-rate FIFO hop and a flapped
// DRR+RED bottleneck hop. Every guest is a forkable flyweight, so the
// whole fabric is snapshottable mid-run.
func snapClusterCfg(seed int64, frames int, crashAt, restartAfter sim.Cycles) Config {
	return Config{
		Machines: []MachineSpec{
			{
				Name:   "sender",
				Config: kernel.Config{Seed: seed, CPUHz: testHz},
				Boot: func(c *Cluster, m *kernel.Machine) error {
					step, fork := guest.Resumable(snapSender{dst: c.AddrOf(2), flow: 5, frames: frames, gap: 40_000})
					_, err := m.Spawn(kernel.SpawnConfig{
						Name: "pktgen", Content: "pktgen v1", Step: step, Fork: fork,
					})
					return err
				},
			},
			{
				Name: "router",
				Config: kernel.Config{
					Seed: seed + 1, CPUHz: testHz,
					Faults: &kernel.FaultSpec{Seed: seed + 9, Syscalls: []kernel.SyscallFault{
						{Name: "read", Errno: guest.EIO, ProbPPM: 60_000},
						{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: 60_000},
					}},
				},
				Service: true,
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					step, fork := ForwarderGuest(3_000)
					_, err := m.Spawn(kernel.SpawnConfig{
						Name: "fwd", Content: "fwd v1", Step: step, Fork: fork,
					})
					return err
				},
			},
			{
				Name:         "receiver",
				Config:       kernel.Config{Seed: seed + 2, CPUHz: testHz},
				Service:      true,
				CrashAt:      crashAt,
				RestartAfter: restartAfter,
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					step, fork := guest.Resumable(snapWatcher{})
					_, err := m.Spawn(kernel.SpawnConfig{
						Name: "sink", Content: "sink v1", Step: step, Fork: fork,
					})
					return err
				},
			},
		},
		Links: []LinkSpec{
			{From: 0, To: 1, LatencyUs: 40, PacketsPerSecond: 30_000, QueueDepth: 16},
			{
				From: 1, To: 2, LatencyUs: 40, PacketsPerSecond: 12_000, QueueDepth: 16,
				Qdisc: QdiscDRR,
				RED:   &REDSpec{MinDepth: 4, MaxDepth: 12, MaxPct: 30, Weight: 7},
				Flap:  &FlapSpec{FirstDownUs: 1_500, DownUs: 300, UpUs: 2_000},
			},
		},
		Routes: []RouteSpec{
			{On: 0, Dst: 2, Via: 1},
			{On: 2, Dst: 0, Via: 1},
		},
	}
}

// snapBarrier pauses the fabric mid-transfer: the sender is roughly a
// third through its frames, the router mid-drain, the bottleneck
// between flap windows.
const snapBarrier = sim.Cycles(2_500_000)

// renderCluster flattens a finished cluster's observable outcome —
// every incarnation's clock, fault, and NIC ledgers plus every link
// direction's wire counters — so bit-identical histories compare as
// string equality.
func renderCluster(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d\n", c.Now())
	for i := 0; i < c.Size(); i++ {
		for j, m := range c.Incarnations(i) {
			fmt.Fprintf(&b, "%s.%d clock=%d faults=%d rxdrop=%d nicrx=%d\n",
				c.Name(i), j, m.Clock().Now(), m.FaultsInjected(), m.RxBufDropped(), m.NIC().Received())
			for _, ms := range m.Measurements() {
				fmt.Fprintf(&b, "  task %s pid=%d digest=%s\n", ms.Name, ms.PID, ms.Digest)
			}
		}
	}
	for i := 0; i < c.Links(); i++ {
		l := c.Link(i)
		for d, dir := range []*Link{l, l.Reverse()} {
			fmt.Fprintf(&b, "link%d.%d sent=%d delivered=%d dropped=%d queued=%d marked=%d early=%d\n",
				i, d, dir.Sent(), dir.Delivered(), dir.Dropped(), dir.Queued(), dir.Marked(), dir.EarlyDropped())
		}
	}
	return b.String()
}

// TestClusterSnapshotRestoreIdentical is the cluster-level byte-
// identity oracle: pause mid-run at a barrier, snapshot, and the
// original continued to completion must render identically to a
// restored cluster continued to completion — twice, from the same
// image, proving the image survives restores untouched.
func TestClusterSnapshotRestoreIdentical(t *testing.T) {
	orig, err := New(snapClusterCfg(301, 160, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	done, err := orig.RunUntil(snapBarrier)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("fabric finished before the snapshot barrier; the checkpoint would capture a dead cluster")
	}
	img, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if img.Machines() != 3 {
		t.Fatalf("image holds %d machines, want 3", img.Machines())
	}
	if at := img.At(); at < snapBarrier {
		t.Fatalf("image frontier %d is before the barrier %d", at, snapBarrier)
	}
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}
	want := renderCluster(orig)
	for k := 0; k < 2; k++ {
		r, err := Restore(img)
		if err != nil {
			t.Fatalf("restore %d: %v", k, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("restore %d run: %v", k, err)
		}
		if got := renderCluster(r); got != want {
			t.Fatalf("restore %d diverged from the original:\n--- original\n%s--- restored\n%s", k, want, got)
		}
	}
}

// FuzzClusterSnapshotBarrier checkpoints snapClusterCfg's fabric at a
// barrier taken from the input, with the router's read (EIO) and
// sendto (EAGAIN) faults at the input's rates, so a barrier can catch
// the forwarder anywhere in a retry: mid-attempt, reading the clock or
// sleeping out a backoff. The barrier is a fraction of the sender's
// life in a reference run, since a snapshot needs every machine live.
// The original continued to the end and the restore run to the end
// must render identically.
func FuzzClusterSnapshotBarrier(f *testing.F) {
	f.Add(int64(301), uint16(21845), uint32(60_000), uint32(60_000))
	f.Add(int64(7), uint16(40000), uint32(0), uint32(kernel.PPMScale)) // every forward retries until its budget runs out
	f.Add(int64(-3), uint16(9000), uint32(kernel.PPMScale), uint32(500_000))
	f.Fuzz(func(t *testing.T, seed int64, frac uint16, readPPM, sendtoPPM uint32) {
		build := func() *Cluster {
			cfg := snapClusterCfg(seed, 40, 0, 0)
			cfg.Machines[1].Config.Faults = &kernel.FaultSpec{Seed: seed + 9, Syscalls: []kernel.SyscallFault{
				{Name: "read", Errno: guest.EIO, ProbPPM: readPPM % (kernel.PPMScale + 1)},
				{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: sendtoPPM % (kernel.PPMScale + 1)},
			}}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		finish := func(c *Cluster) string {
			t.Helper()
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			return renderCluster(c)
		}
		ref := build()
		finish(ref)
		barrier := ref.Machine(0).Clock().Now() * sim.Cycles(frac) / (1 << 16)

		orig := build()
		if _, err := orig.RunUntil(barrier); err != nil {
			t.Fatal(err)
		}
		img, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at %d: %v", barrier, err)
		}
		want := finish(orig)
		r, err := Restore(img)
		if err != nil {
			t.Fatalf("restore at %d: %v", barrier, err)
		}
		if got := finish(r); got != want {
			t.Fatalf("barrier %d: the restore diverged from the original:\n--- original\n%s--- restored\n%s", barrier, want, got)
		}
	})
}

// TestClusterForkDivergence proves forks are independent and diverge
// only through post-fork inputs: two restores from one image, one
// perturbed by an extra guest spawned after the fork, run to
// completion. The unperturbed fork matches the original; the
// perturbed one does not.
func TestClusterForkDivergence(t *testing.T) {
	orig, err := New(snapClusterCfg(303, 160, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.RunUntil(snapBarrier); err != nil {
		t.Fatal(err)
	}
	img, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	// The post-fork input: an extra compute job on the perturbed
	// fork's sender machine, shifting its scheduling from here on.
	if err := spawnBusy(perturbed.Machine(0), "intruder", 0.001); err != nil {
		t.Fatal(err)
	}
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	if err := perturbed.Run(); err != nil {
		t.Fatal(err)
	}
	want := renderCluster(orig)
	if got := renderCluster(clean); got != want {
		t.Fatalf("unperturbed fork diverged from the original:\n--- original\n%s--- fork\n%s", want, got)
	}
	if got := renderCluster(perturbed); got == want {
		t.Fatal("perturbed fork rendered identically to the original; the perturbation never took")
	}
}

// TestClusterCrashRestartReplay pins the pending-failure rule: a
// snapshot taken while CrashAt is still in the future carries the
// schedule as plain data, so the restored cluster takes the crash,
// the reboot, and the incarnation split identically.
func TestClusterCrashRestartReplay(t *testing.T) {
	orig, err := New(snapClusterCfg(307, 160, 4_000_000, 500_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.RunUntil(snapBarrier); err != nil {
		t.Fatal(err)
	}
	img, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(orig.Incarnations(2)); n != 2 {
		t.Fatalf("receiver served %d incarnations, want 2 (crash + reboot)", n)
	}
	want := renderCluster(orig)
	r, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := renderCluster(r); got != want {
		t.Fatalf("restored cluster's crash/restart history diverged:\n--- original\n%s--- restored\n%s", want, got)
	}
	// And the flip side of the rule: once the crash has happened the
	// cluster owns a retired incarnation and is no longer
	// snapshottable.
	if _, err := orig.Snapshot(); !errors.Is(err, kernel.ErrNotSnapshottable) {
		t.Fatalf("snapshot after a crash/reboot = %v, want ErrNotSnapshottable", err)
	}
}

// TestClusterSnapshotRejects pins the refusal surface: started Body
// guests (suspended on their coroutines) and finished fabrics are not
// snapshottable, and both report kernel.ErrNotSnapshottable.
func TestClusterSnapshotRejects(t *testing.T) {
	t.Run("goroutine guest", func(t *testing.T) {
		cfg := Config{
			Machines: []MachineSpec{
				{
					Config: kernel.Config{Seed: 311, CPUHz: testHz},
					Boot: func(_ *Cluster, m *kernel.Machine) error {
						return spawnBusy(m, "legacy", 0.01)
					},
				},
				{
					Config: kernel.Config{Seed: 312, CPUHz: testHz},
					Boot: func(_ *Cluster, m *kernel.Machine) error {
						return spawnBusy(m, "peer", 0.01)
					},
				},
			},
			Links: []LinkSpec{{From: 0, To: 1}},
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunUntil(100_000); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Snapshot(); !errors.Is(err, kernel.ErrNotSnapshottable) {
			t.Fatalf("snapshot with started Body guests = %v, want ErrNotSnapshottable", err)
		}
	})
	t.Run("finished cluster", func(t *testing.T) {
		c, err := New(snapClusterCfg(313, 20, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Snapshot(); !errors.Is(err, kernel.ErrNotSnapshottable) {
			t.Fatalf("snapshot of a finished cluster = %v, want ErrNotSnapshottable", err)
		}
	})
}
