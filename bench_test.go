// These benchmarks measure what the bench module (bench/, see the
// README's Benchmarks section) does not: the two guest forms side by
// side, resident bytes per machine, the forked/fresh campaign ratio
// and bytes per image, one metered job's allocations, and the
// bidirectional link path. The artifacts' host time is bench/'s
// paper-artifacts and fabric-floods workloads, and their headline
// metrics are pinned by the render goldens.
package cpumeter

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

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

// BenchmarkMeterAllocs reports the allocation footprint of one metered
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
		if _, err := Meter(JobSpec{Workload: "O", Options: Options{Seed: 2010, Scale: 0.01}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForkedCampaign times the shared-warmup campaign path: one
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
		// Time the snapshots alone: not the build, the warmup or
		// either forced collection.
		b.ResetTimer()
		for i := range imgs {
			img, err := SnapshotMachine(m)
			if err != nil {
				b.Fatal(err)
			}
			imgs[i] = img
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(b.N), "B/image")
		runtime.KeepAlive(imgs)
	})
}
