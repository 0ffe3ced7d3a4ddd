// Benchmarks regenerate every evaluation artifact of the paper, one
// testing.B per figure/table, and report the artifact's headline
// metric (inflation percentages, billed seconds) via ReportMetric so
// `go test -bench=.` doubles as the reproduction harness.
//
// Benchmarks run at BenchScale (1% of paper scale) so the full suite
// completes in minutes; `meterlab all -scale 1` produces the
// full-length numbers recorded in EXPERIMENTS.md.
package cpumeter

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// BenchScale is the victim/attack scale benchmarks run at.
const BenchScale = 0.01

func benchOpts() Options {
	return Options{Seed: 2010, Scale: BenchScale}
}

// inflationOf extracts victim billed inflation (attack vs normal)
// from a per-program bar figure, averaged over the four programs.
func inflationOf(fig *Figure) float64 {
	var sum float64
	var n int
	for i := 0; i+1 < len(fig.Bars); i += 2 {
		normal := fig.Bars[i].Total()
		attack := fig.Bars[i+1].Total()
		if normal > 0 {
			sum += (attack - normal) / normal * 100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func benchFigure(b *testing.B, id string, metric func(*Figure) float64, unit string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		fig, err := Reproduce(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = metric(fig)
	}
	b.ReportMetric(last, unit)
}

func BenchmarkFigure4ShellAttack(b *testing.B) {
	benchFigure(b, "figure4", inflationOf, "mean-inflation-%")
}

func BenchmarkFigure5CtorAttack(b *testing.B) {
	benchFigure(b, "figure5", inflationOf, "mean-inflation-%")
}

func BenchmarkFigure6Substitution(b *testing.B) {
	benchFigure(b, "figure6", inflationOf, "mean-inflation-%")
}

// schedulingGradient reports the victim's billed growth from the
// no-attack pair to the nice -20 pair.
func schedulingGradient(fig *Figure) float64 {
	// Bars alternate victim/Fork per group; first group is the
	// independent baseline.
	if len(fig.Bars) < 2 {
		return 0
	}
	base := fig.Bars[0].Total()
	last := fig.Bars[len(fig.Bars)-2].Total()
	if base == 0 {
		return 0
	}
	return (last - base) / base * 100
}

func BenchmarkFigure7SchedulingOnW(b *testing.B) {
	benchFigure(b, "figure7", schedulingGradient, "nice-20-inflation-%")
}

func BenchmarkFigure8SchedulingOnB(b *testing.B) {
	benchFigure(b, "figure8", schedulingGradient, "nice-20-inflation-%")
}

func BenchmarkFigure9Thrashing(b *testing.B) {
	benchFigure(b, "figure9", inflationOf, "mean-inflation-%")
}

func BenchmarkFigure10InterruptFlood(b *testing.B) {
	benchFigure(b, "figure10", inflationOf, "mean-inflation-%")
}

func BenchmarkFigure11ExceptionFlood(b *testing.B) {
	benchFigure(b, "figure11", inflationOf, "mean-inflation-%")
}

// rejectedCount counts REJECTED rows in a table artifact.
func rejectedCount(fig *Figure) float64 {
	var n float64
	for _, row := range fig.Rows {
		for _, cell := range row {
			if cell == "REJECTED" {
				n++
			}
		}
	}
	return n
}

func BenchmarkComparisonTable(b *testing.B) {
	benchFigure(b, "comparison", func(fig *Figure) float64 {
		return float64(len(fig.Rows))
	}, "attacks-compared")
}

func BenchmarkMitigationTable(b *testing.B) {
	benchFigure(b, "mitigation", rejectedCount, "attacks-rejected")
}

// lastColumnPct parses the last percentage column of a table.
func lastColumnPct(fig *Figure) float64 {
	if len(fig.Rows) == 0 {
		return 0
	}
	row := fig.Rows[len(fig.Rows)-1]
	for i := len(row) - 1; i >= 0; i-- {
		cell := strings.TrimSuffix(strings.TrimPrefix(row[i], "+"), "%")
		if v, err := strconv.ParseFloat(cell, 64); err == nil {
			return v
		}
	}
	return 0
}

func BenchmarkAblationTickRate(b *testing.B) {
	benchFigure(b, "ablation1", lastColumnPct, "hz1000-inflation-%")
}

func BenchmarkAblationScheduler(b *testing.B) {
	benchFigure(b, "ablation2", lastColumnPct, "cfs-inflation-%")
}

func BenchmarkAblationIRQAccounting(b *testing.B) {
	benchFigure(b, "ablation3", func(fig *Figure) float64 {
		return float64(len(fig.Rows))
	}, "schemes-compared")
}

func BenchmarkAblationDetector(b *testing.B) {
	benchFigure(b, "ablation4", func(fig *Figure) float64 {
		return float64(len(fig.Rows))
	}, "strengths-swept")
}

// BenchmarkMachineSteps measures raw simulator throughput: virtual
// seconds of a CPU-bound victim simulated per host second.
func BenchmarkMachineSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := Meter(JobSpec{Workload: "O", Options: benchOpts()})
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkClusterFlood regenerates the cross-machine flood artifact:
// three 3-machine clusters (baseline, 10k, 40k pps) advanced in
// deterministic lockstep, sharded across the worker pool. The metric
// is the commodity-billed host's inflation at 40k pps relative to its
// own no-flood bill.
func BenchmarkClusterFlood(b *testing.B) {
	benchFigure(b, "cluster", func(fig *Figure) float64 {
		// Bars: per host, [no flood, 10k, 40k]; the jiffy host leads.
		if len(fig.Bars) < 3 || fig.Bars[0].Total() == 0 {
			return 0
		}
		return (fig.Bars[2].Total() - fig.Bars[0].Total()) / fig.Bars[0].Total() * 100
	}, "40kpps-inflation-%")
}

// BenchmarkClusterBidirectional measures the bidirectional link
// machinery end to end: an ack-paced sender pushes a fixed transfer
// through a finite-capacity wire while the receiver's echo daemon
// acks every frame over the reverse direction, so each round trip
// exercises NetSend, the serialisation pipes, NetRxWait blocking, and
// the lockstep barrier. The metric is the sender's achieved rate in
// frames per virtual second — the number ack pacing actually shapes.
func BenchmarkClusterBidirectional(b *testing.B) {
	const frames = 2000
	const window = 16
	var achieved float64
	for i := 0; i < b.N; i++ {
		cl, err := NewCluster(ClusterConfig{
			Machines: []ClusterMachineSpec{
				{
					Config: kernel.Config{Seed: 2010, CPUHz: 1_000_000_000},
					Boot: func(_ *Cluster, m *kernel.Machine) error {
						_, err := m.Spawn(kernel.SpawnConfig{
							Name:    "sender",
							Content: "ack-paced pktgen v1",
							Body: func(ctx guest.Context) {
								sent, acked := uint64(0), uint64(0)
								for sent < frames {
									for sent < frames && sent < acked+window {
										//simlint:errno-ok fault-free benchmark guest; delivery is paced by the ack counter
										ctx.NetSend(guest.Frame{Dst: 2})
										sent++
									}
									acked = ctx.NetRxWait(acked)
								}
							},
						})
						return err
					},
				},
				{
					Config: kernel.Config{Seed: 2011, CPUHz: 1_000_000_000},
					Boot: func(_ *Cluster, m *kernel.Machine) error {
						_, err := m.Spawn(kernel.SpawnConfig{
							Name:    "echod",
							Content: "echod v1",
							Body: func(ctx guest.Context) {
								seen, acked := uint64(0), uint64(0)
								for acked < frames {
									seen = ctx.NetRxWait(seen)
									for acked < seen {
										//simlint:errno-ok fault-free benchmark guest; delivery is paced by the ack counter
										ctx.NetSend(guest.Frame{Dst: 1})
										acked++
									}
								}
							},
						})
						return err
					},
				},
			},
			Links: []ClusterLinkSpec{{From: 0, To: 1, LatencyUs: 250, PacketsPerSecond: cluster.DefaultLinkPPS}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			b.Fatal(err)
		}
		elapsed := cl.Machine(0).Clock().Seconds(cl.Machine(0).Clock().Now())
		achieved = frames / elapsed
	}
	b.ReportMetric(achieved, "acked-frames/vsec")
}

// BenchmarkRouterFlood regenerates the routed-fabric artifact: three
// 5-machine clusters (silent, 10k, 20k pps per attacker) where every
// victim-bound frame crosses a billed router machine and the egress
// wire runs RED/ECN. The metric is the router forwarding daemon's
// jiffy bill at the top rate — the cross-machine distortion the
// scenario exists to show.
func BenchmarkRouterFlood(b *testing.B) {
	benchFigure(b, "routerflood", func(fig *Figure) float64 {
		// Bars alternate router-fwd/victim-host per rate; the last
		// router-fwd bar is the top-rate bill.
		if len(fig.Bars) < 2 {
			return 0
		}
		return fig.Bars[len(fig.Bars)-2].Total()
	}, "router-bill-sec")
}

// BenchmarkFairFlood regenerates the qdisc-fairness artifact: three
// 3-machine clusters (FIFO quiet, FIFO flooded, DRR flooded) sharing
// one byte-accurate egress pipe. The metric is the ECN flow's
// completion time under DRR while MTU junk floods the same wire —
// the bounded latency the fair queue exists to provide.
func BenchmarkFairFlood(b *testing.B) {
	benchFigure(b, "fairflood", func(fig *Figure) float64 {
		// Bars alternate flow-done/victim-bill per config; the last
		// flow-done bar is the DRR-under-flood completion time.
		if len(fig.Bars) < 2 {
			return 0
		}
		return fig.Bars[len(fig.Bars)-2].Total()
	}, "drr-flow-done-sec")
}

// BenchmarkChaosFlood regenerates the billing-integrity artifact:
// four 5-machine clusters (healthy, 2% syscall faults, router crash,
// crash+reboot+flap) whose every run must keep each link's
// conservation ledger balanced. The metric is the router's cumulative
// jiffy bill in the crash+reboot scenario — the last router-fwd bar —
// the number the crash machinery must keep monotone.
func BenchmarkChaosFlood(b *testing.B) {
	benchFigure(b, "chaosflood", func(fig *Figure) float64 {
		// Bars alternate router-fwd/victim-host per scenario; the last
		// router-fwd bar is the crash+reboot+flap cumulative bill.
		if len(fig.Bars) < 2 {
			return 0
		}
		return fig.Bars[len(fig.Bars)-2].Total()
	}, "router-bill-sec")
}

// BenchmarkMachineStepsDriver races the two ways to write a guest on
// one request sequence — a long compute/sleep alternation — so the
// flyweight form's saving (no coroutine switch when a request blocks,
// no parked stack) shows up directly as ns/op and B/op deltas against
// the same sequence written as blocking Body code.
func BenchmarkMachineStepsDriver(b *testing.B) {
	const iters = 50_000
	driver := func(flyweight bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := kernel.New(kernel.Config{Seed: 2010, CPUHz: 1_000_000_000})
				var n uint64
				var step guest.Step
				step = func(ctx guest.Context, _ guest.Resume) guest.Step {
					if n >= iters {
						return nil
					}
					n++
					if n%2 == 0 {
						ctx.Compute(50_000)
					} else {
						ctx.Sleep(50_000)
					}
					return step
				}
				sc := kernel.SpawnConfig{Name: "stepper", Content: "steady stepper v1"}
				if flyweight {
					sc.Step = step
				} else {
					sc.Body = func(ctx guest.Context) {
						for n := 1; n <= iters; n++ {
							if n%2 == 0 {
								ctx.Compute(50_000)
							} else {
								ctx.Sleep(50_000)
							}
						}
					}
				}
				if _, err := m.Spawn(sc); err != nil {
					b.Fatal(err)
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("flyweight", driver(true))
	b.Run("body", driver(false))
}

// BenchmarkResidentMachines measures whole-fleet residency: 10k idle
// simulated machines, each hosting one idler guest, all stepped
// through a few idle ticks, reported as resident bytes (heap plus
// goroutine stacks — a suspended coroutine's stack lives in
// StackInuse, not HeapAlloc) per machine. Written as a Step, a
// resident guest is a few words of struct state, so the per-machine
// figure is the machine model itself (~6 KB of scheduler arrays,
// accountants, devices) plus per-process billing metadata; the body
// sub-bench writes the idler as blocking code and pays its coroutine's
// ~8 KB-class stack per guest on top — the cost the flyweight form
// exists to delete.
func BenchmarkResidentMachines(b *testing.B) {
	const residents = 10_000
	fleet := func(flyweight bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				machines := make([]*kernel.Machine, residents)
				for j := range machines {
					m := kernel.New(kernel.Config{Seed: int64(2010 + j), CPUHz: 1_000_000_000})
					var step guest.Step
					step = func(ctx guest.Context, _ guest.Resume) guest.Step {
						ctx.Sleep(1_000_000)
						return step
					}
					sc := kernel.SpawnConfig{Name: "idler", Content: "resident idler v1"}
					if flyweight {
						sc.Step = step
					} else {
						sc.Body = func(ctx guest.Context) {
							for {
								ctx.Sleep(1_000_000)
							}
						}
					}
					if _, err := m.Spawn(sc); err != nil {
						b.Fatal(err)
					}
					machines[j] = m
				}
				for tick := sim.Cycles(1); tick <= 4; tick++ {
					for _, m := range machines {
						if _, err := m.RunUntil(tick * 250_000); err != nil {
							b.Fatal(err)
						}
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				resident := float64(after.HeapAlloc-before.HeapAlloc) +
					float64(after.StackInuse) - float64(before.StackInuse)
				b.ReportMetric(resident/residents, "B/machine")
				for _, m := range machines {
					m.Shutdown()
				}
			}
		}
	}
	b.Run("flyweight", fleet(true))
	b.Run("body", fleet(false))
}

// BenchmarkMeterAllocs pins the allocation footprint of one metered
// job: machine construction plus the whole steady-state loop. The
// loop itself (compute slices, ticks, library calls, malloc/free,
// page touches, sleeps, disk completions) is designed to allocate
// nothing — event free lists, reusable callbacks, recycled guest
// requests, and a recycling malloc — so B/op here is dominated by
// one-time setup and must not grow with job length. Seed-tree
// baseline: ~90 KB/op, ~900 allocs/op.
func BenchmarkMeterAllocs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Meter(JobSpec{Workload: "O", Options: benchOpts()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignAll regenerates every artifact through the
// parallel campaign engine at BenchScale — the whole-suite wall-time
// figure the per-figure benchmarks cannot show.
func BenchmarkCampaignAll(b *testing.B) {
	var artifacts float64
	for i := 0; i < b.N; i++ {
		runs, err := ReproduceAllTimed(nil, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		artifacts = float64(len(runs))
	}
	b.ReportMetric(artifacts, "artifacts")
}

// BenchmarkForkedCampaign pins the shared-warmup campaign path: one
// fork-lab warmup checkpointed and forked into every variant, against
// building and warming each variant's machine from scratch. Both
// paths produce byte-identical results (TestForkedCampaignMatches-
// FreshBuilds in internal/experiments); the forked path just pays the
// warmup once per campaign instead of once per variant. The image
// sub-benchmark reports the checkpoint's resident heap size.
func BenchmarkForkedCampaign(b *testing.B) {
	spec := ForkLabSpec{Seed: 2010}
	rates := []uint64{10_000, 20_000, 40_000, 80_000}
	// The barrier sits deep in the run — the regime the shared-warmup
	// path exists for: a long common prefix (here ~90% of the
	// default-spec history, most of it the churn guest thrashing
	// through swap) swept by short divergent tails. A shallow barrier
	// shares too little to beat the per-variant restore cost.
	const warmup = Cycles(250_000_000)
	b.Run("forked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MeterForkLabCampaign(spec, warmup, rates, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(rates)), "variants")
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pps := range rates {
				m, err := BuildForkLab(spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RunUntil(warmup); err != nil {
					b.Fatal(err)
				}
				m.NIC().StartFlood(pps)
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				HarvestForkLab(m)
				m.Shutdown()
			}
		}
		b.ReportMetric(float64(len(rates)), "variants")
	})
	b.Run("image", func(b *testing.B) {
		m, err := BuildForkLab(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.RunUntil(warmup); err != nil {
			b.Fatal(err)
		}
		defer m.Shutdown()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		imgs := make([]*MachineImage, b.N)
		for i := range imgs {
			img, err := SnapshotMachine(m)
			if err != nil {
				b.Fatal(err)
			}
			imgs[i] = img
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(b.N), "B/image")
		runtime.KeepAlive(imgs)
	})
}
