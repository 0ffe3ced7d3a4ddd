package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/metering"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the fabric goldens under testdata/ from the current tree")

// homeRebootCfg is a fabric whose DRR pipe loses its kick-timer home
// to a crash while backlog stands: two forkable senders share one DRR
// Bottleneck pipe, the first toward member 2 (the pipe's home, which
// crashes at 3 ms and reboots at 4 ms) and the second toward member 3.
// Both offer 2.5x the wire's rate, so at the crash the backlog bound
// for 2 expires while frames for 3 stay queued, and the kick timer
// moves to the first live member, senderA. Exactly one kick must
// drain them: the reboot must not arm a second one on the home.
func homeRebootCfg() Config {
	sender := func(seed int64, dst int, flow uint32) MachineSpec {
		return MachineSpec{
			Config: kernel.Config{Seed: seed, CPUHz: testHz},
			Boot: func(c *Cluster, m *kernel.Machine) error {
				step, fork := guest.Resumable(snapSender{dst: c.AddrOf(dst), flow: flow, frames: 160, gap: 40_000})
				_, err := m.Spawn(kernel.SpawnConfig{
					Name: "pktgen", Content: "pktgen v1", Step: step, Fork: fork,
				})
				return err
			},
		}
	}
	sink := func(name string, seed int64, crashAt, restartAfter sim.Cycles) MachineSpec {
		return MachineSpec{
			Name:         name,
			Config:       kernel.Config{Seed: seed, CPUHz: testHz},
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
		}
	}
	a, b := sender(401, 2, 1), sender(402, 3, 2)
	a.Name, b.Name = "senderA", "senderB"
	shared := LinkSpec{LatencyUs: 40, PacketsPerSecond: 10_000, QueueDepth: 32, Qdisc: QdiscDRR, Bottleneck: "uplink"}
	toHome, toPeer := shared, shared
	toHome.From, toHome.To = 0, 2
	toPeer.From, toPeer.To = 1, 3
	return Config{
		Machines: []MachineSpec{a, b, sink("home", 403, 3_000_000, 1_000_000), sink("peer", 404, 0, 0)},
		Links:    []LinkSpec{toHome, toPeer},
	}
}

// swapHog is a forkable flyweight memory hog: it stores to one page
// after another of a footprint larger than its machine's RAM, so past
// the first sweep every store faults a page in and evicts a dirty one,
// a read and a write against the shared swap device.
type swapHog struct {
	pages, touches uint64
	n              uint64
	stored         bool // the last post was the store, not the compute
}

func (g *swapHog) Activate(ctx guest.Context, _ guest.Resume) bool {
	if g.stored {
		g.n++
		g.stored = false
		ctx.Compute(2_000)
		return true
	}
	if g.n >= g.touches {
		return false
	}
	g.stored = true
	ctx.Store(0x400000 + g.n%g.pages*4096)
	return true
}

// swapVictim is a forkable flyweight job on the swap host: compute
// bursts with short sleeps between them, so remote I/O completions land
// both while it runs (billed to it) and while the host idles.
type swapVictim struct {
	rounds   int
	i        int
	computed bool // the last post was the compute, not the sleep
}

func (g *swapVictim) Activate(ctx guest.Context, _ guest.Resume) bool {
	if g.computed {
		g.i++
		g.computed = false
		ctx.Sleep(500_000)
		return true
	}
	if g.i >= g.rounds {
		return false
	}
	g.computed = true
	ctx.Compute(1_500_000)
	return true
}

// sharedSwapCfg is two memory hogs (members 0 and 1) mounting the swap
// device that member 2 exports while a victim job runs there. Both
// clients share one device channel, so one client's completions can
// fall before the other's queued ones, and every read lands ahead of
// the writes queued before it.
func sharedSwapCfg() Config {
	client := func(name string, seed int64) MachineSpec {
		return MachineSpec{
			Name:   name,
			Config: kernel.Config{Seed: seed, CPUHz: testHz, PhysMemBytes: 32 * 4096},
			Boot: func(_ *Cluster, m *kernel.Machine) error {
				step, fork := guest.Resumable(swapHog{pages: 64, touches: 64 + 70})
				_, err := m.Spawn(kernel.SpawnConfig{
					Name: "memhog", Content: "memhog v1", Step: step, Fork: fork,
				})
				return err
			},
		}
	}
	return Config{
		Machines: []MachineSpec{
			client("hogA", 501),
			client("hogB", 502),
			{
				Name:   "host",
				Config: kernel.Config{Seed: 503, CPUHz: testHz},
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					step, fork := guest.Resumable(swapVictim{rounds: 400})
					_, err := m.Spawn(kernel.SpawnConfig{
						Name: "victim", Content: "victim v1", Step: step, Fork: fork,
					})
					return err
				},
			},
		},
		SharedSwap: &SharedSwapSpec{Host: 2, Clients: []int{0, 1}},
	}
}

// renderSwap adds what renderCluster leaves out of a shared-swap
// history: the host's bill under every scheme, its system account, and
// each client's page I/O against the shared device.
func renderSwap(c *Cluster) string {
	var b strings.Builder
	ss := c.cfg.SharedSwap
	host := c.Machine(ss.Host)
	for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
		sys, _ := host.UsageBy(scheme, metering.SystemPID)
		fmt.Fprintf(&b, "%s %s system=%+v\n", c.Name(ss.Host), scheme, sys)
		for _, ms := range host.Measurements() {
			u, _ := host.UsageBy(scheme, ms.PID)
			fmt.Fprintf(&b, "%s %s %s=%+v\n", c.Name(ss.Host), scheme, ms.Name, u)
		}
	}
	for _, ci := range ss.Clients {
		d := c.Machine(ci).Disk()
		fmt.Fprintf(&b, "%s disk reads=%d writes=%d\n", c.Name(ci), d.IOs(), d.Writes())
	}
	return b.String()
}

// TestFabricGoldens pins four fabric histories that no artifact
// golden covers, as renderCluster's text in testdata/<name>.golden:
// the snapshot fabric whose receiver crashes and reboots behind a DRR
// hop, TestRestartExpiresStrandedDRRBacklog's fabric, homeRebootCfg,
// whose render also counts every member's pending events at a barrier
// just after the reboot, so a second kick timer would show wherever it
// was armed, and sharedSwapCfg, whose render counts the swap host's
// pending events mid-backlog and adds renderSwap. crash_restart and
// stranded_drr were recorded before the cluster named link endpoints
// and pipe homes by member index, shared_swap before the swap host
// kept its remote I/O in a backlog, and drr_home_reboot when a member
// going down first handed its pipes' kick timers to a live member.
// Regenerate them only to move that bar on purpose:
//
//	go test ./internal/cluster -run TestFabricGoldens -update
func TestFabricGoldens(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		barrier sim.Cycles // nonzero: render the pending events of members here
		members []int
	}{
		{"crash_restart", snapClusterCfg(307, 160, 4_000_000, 500_000), 0, nil},
		{"stranded_drr", strandedDRRCfg(100), 0, nil},
		{"drr_home_reboot", homeRebootCfg(), 4_100_000, []int{0, 1, 2, 3}},
		{"shared_swap", sharedSwapCfg(), sharedSwapBarriers[1], []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var pending string
			if tc.barrier > 0 {
				if done, err := c.RunUntil(tc.barrier); err != nil || done {
					t.Fatalf("RunUntil(%d) = %v, %v; want a live fabric at the barrier", tc.barrier, done, err)
				}
			}
			for _, i := range tc.members {
				img, err := c.Machine(i).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				pending += fmt.Sprintf("%s.%d pending=%d at=%d\n",
					c.Name(i), len(c.Incarnations(i))-1, img.PendingEvents(), img.At())
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			got := pending + renderCluster(c)
			if tc.cfg.SharedSwap != nil {
				got += renderSwap(c)
			}
			file := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("render diverged from %s\n--- got ---\n%s--- want ---\n%s", file, got, want)
			}
		})
	}
}

// sharedSwapBarriers are instants at which sharedSwapCfg's host holds
// a deep backlog of remote I/O completions: early in the hogs' first
// sweep, and twice in their steady state. A cluster snapshots only
// while every member is live, so none falls after the hogs exit.
var sharedSwapBarriers = []sim.Cycles{60_000_000, 250_000_000, 600_000_000}

// TestSharedSwapRestoresMidBacklog snapshots sharedSwapCfg at each of
// sharedSwapBarriers, where the host holds at least 100 pending events,
// restores the image and runs the copy to the end. The copy's render
// must match testdata/shared_swap.golden, so every remote I/O the host
// had pending at the barrier survives the checkpoint in order.
func TestSharedSwapRestoresMidBacklog(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "shared_swap.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// The golden's first line is the pending count at its own barrier.
	_, want, _ := strings.Cut(string(golden), "\n")
	for _, at := range sharedSwapBarriers {
		c, err := New(sharedSwapCfg())
		if err != nil {
			t.Fatal(err)
		}
		if done, err := c.RunUntil(at); err != nil || done {
			t.Fatalf("RunUntil(%d) = %v, %v; want a live fabric at the barrier", at, done, err)
		}
		img, err := c.Snapshot()
		c.Shutdown()
		if err != nil {
			t.Fatalf("snapshot at %d: %v", at, err)
		}
		if n := img.machines[2].PendingEvents(); n < 100 {
			t.Fatalf("host holds %d pending events at %d, want at least 100", n, at)
		}
		r, err := Restore(img)
		if err != nil {
			t.Fatalf("restore at %d: %v", at, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("run restored at %d: %v", at, err)
		}
		if got := renderCluster(r) + renderSwap(r); got != want {
			t.Errorf("restored at %d: render diverged from the golden\n--- got ---\n%s--- want ---\n%s", at, got, want)
		}
	}
}
