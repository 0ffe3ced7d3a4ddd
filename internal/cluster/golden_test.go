package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the fabric goldens under testdata/ from the current tree")

// homeRebootCfg is a fabric whose DRR pipe loses its kick-timer home
// to a crash while backlog stands: two forkable senders share one DRR
// Bottleneck pipe, the first toward member 2 (the pipe's home, which
// crashes at 3 ms and reboots at 4 ms) and the second toward member 3.
// Both offer 2.5x the wire's rate, so at the reboot the sender to 2 has
// lost its backlog to expiry while the sender to 3 still has frames
// queued, and the rebooted home must hold exactly one kick for them.
func homeRebootCfg() Config {
	sender := func(seed int64, dst int, flow uint32) MachineSpec {
		return MachineSpec{
			Config: kernel.Config{Seed: seed, CPUHz: testHz},
			Boot: func(c *Cluster, m *kernel.Machine) error {
				g := &snapSender{dst: c.AddrOf(dst), flow: flow, frames: 160, gap: 40_000}
				_, err := m.Spawn(kernel.SpawnConfig{
					Name: "pktgen", Content: "pktgen v1", Step: g.run, Fork: g.fork,
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
				w := &snapWatcher{}
				_, err := m.Spawn(kernel.SpawnConfig{
					Name: "sink", Content: "sink v1", Step: w.run, Fork: w.fork,
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

// TestFabricGoldens pins three fabric histories that no artifact
// golden covers, as renderCluster's text in testdata/<name>.golden:
// the snapshot fabric whose receiver crashes and reboots behind a DRR
// hop, TestRestartExpiresStrandedDRRBacklog's fabric, and
// homeRebootCfg, whose render also counts the rebooted home's pending
// events at a barrier just after the reboot, so a second kick timer
// would show. The goldens were recorded before the cluster named link
// endpoints and pipe homes by member index. Regenerate them only to
// move that bar on purpose:
//
//	go test ./internal/cluster -run TestFabricGoldens -update
func TestFabricGoldens(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		barrier sim.Cycles // nonzero: render member 2's pending events here
	}{
		{"crash_restart", snapClusterCfg(307, 160, 4_000_000, 500_000), 0},
		{"stranded_drr", strandedDRRCfg(100), 0},
		{"drr_home_reboot", homeRebootCfg(), 4_100_000},
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
				img, err := c.Machine(2).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				pending = fmt.Sprintf("%s.%d pending=%d at=%d\n",
					c.Name(2), len(c.Incarnations(2))-1, img.PendingEvents(), img.At())
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			got := pending + renderCluster(c)
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
