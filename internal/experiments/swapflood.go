// Cross-machine exception flood: the paper's memory-hog attack
// (Section IV-B4 / Fig. 11) launched from a neighbor machine against
// shared swap. The victim host physically owns the swap device and
// exports it; the neighbor mounts it remotely and runs a hog whose
// footprint over-commits its own RAM, so every hog page fault becomes
// a remote swap I/O: the request's rx interrupt plus the swap
// server's block-layer work land on the victim host, billed to
// whichever task is current there — the victim job, under commodity
// accounting. The neighbor never runs a single instruction on the
// victim host, yet the victim's bill inflates.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/proc"
)

// SwapFloodSpec describes one shared-swap pressure scenario: machine
// 0 is the victim host (runs the billed job and serves swap), machine
// 1 the neighbor (runs the hog when Hog is set).
type SwapFloodSpec struct {
	Opts Options
	// Victim is the billed job on the swap host.
	Victim ClusterVictim
	// Hog arms the neighbor's memory hog; false is the baseline.
	Hog bool
}

// SwapFloodOut is one shared-swap scenario's harvest.
type SwapFloodOut struct {
	Spec   SwapFloodSpec
	Victim ClusterVictimOut
	// RemoteReads/RemoteWrites count the neighbor's page I/Os against
	// the shared device; each one billed the host an rx interrupt
	// plus swap-server service.
	RemoteReads, RemoteWrites uint64
	// HostRxPackets counts remote-swap request frames the host's NIC
	// received.
	HostRxPackets uint64
	// HogMajorFaults counts the hog's own major faults on the
	// neighbor machine.
	HogMajorFaults uint64
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// swapHogRate approximates the hog's sustainable page-touch rate: one
// blocking swap-in per touch at mem.DiskLatency, so ~200 touches per
// virtual second. The budget only bounds the pressure window; the
// actual rate is set by the (possibly contended) shared device.
const swapHogRate = 200

// RunSwapFlood executes one shared-swap scenario in deterministic
// lockstep.
func RunSwapFlood(spec SwapFloodSpec) (*SwapFloodOut, error) {
	o := spec.Opts.norm()
	f := &fabric{o: o, who: "swapflood " + swapFloodKey(spec)}
	host, err := f.victim(spec.Victim, nil)
	if err != nil {
		return nil, err
	}
	// The hog's pressure window outlives the victim.
	hogSec, err := floodSeconds(o, spec.Victim)
	if err != nil {
		return nil, err
	}
	// An eighth of the host's RAM: small enough that the hog pages
	// constantly without needing a paper-scale footprint.
	neighborMem := physMem(o) / 8

	// The hog sweeps a footprint of twice the neighbor's RAM, so
	// after the first pass every store evicts a dirty page and
	// swap-ins serialise on the shared device. The budget covers one
	// full warmup sweep (minor faults, fast) plus hogSec worth of
	// steady-state device-bound major faulting.
	footprint := 2 * neighborMem
	pages := footprint / mem.DefaultPageSize
	touches := pages + uint64(hogSec*swapHogRate)

	var hogPID proc.PID
	neighbor := f.member("", func(_ *cluster.Cluster, m *kernel.Machine) error {
		if !spec.Hog {
			return nil // baseline: the neighbor is quiet
		}
		p, err := m.Spawn(kernel.SpawnConfig{
			Name:    "memhog",
			Content: "remote-swap memory exhaustion attack v1",
			Body: func(ctx guest.Context) {
				base := ctx.Call1("malloc", footprint)
				for n := uint64(0); n < touches; n++ {
					ctx.Store(base + (n%pages)*mem.DefaultPageSize)
					ctx.Compute(2000)
				}
			},
		})
		if p != nil {
			hogPID = p.PID
		}
		return err
	})
	f.cfg.Machines[neighbor].Config.PhysMemBytes = neighborMem
	f.cfg.Links = []cluster.LinkSpec{{From: neighbor, To: host}}
	f.cfg.SharedSwap = &cluster.SharedSwapSpec{Host: host, Clients: []int{neighbor}}

	r, err := f.run()
	if err != nil {
		return nil, err
	}
	v := r.victims[0]
	nm := r.cl.Machine(neighbor)
	out := &SwapFloodOut{
		Spec:          spec,
		Victim:        v,
		RemoteReads:   nm.Disk().IOs(),
		RemoteWrites:  nm.Disk().Writes(),
		HostRxPackets: v.PacketsReceived,
		ElapsedSec:    r.elapsedSec,
	}
	if hogPID != 0 {
		out.HogMajorFaults = nm.Stats(hogPID).MajorFaults
	}
	return out, nil
}

func swapFloodKey(spec SwapFloodSpec) string {
	hog := "baseline"
	if spec.Hog {
		hog = "hog"
	}
	return fmt.Sprintf("%s/%s", hog, spec.Victim.Billing)
}

// crossMachineExceptionFlood regenerates the cluster-level exception
// flood: a neighbor machine's memory hog pressures the swap device
// the victim host exports, once against a jiffy-billed host and once
// against a process-aware host. The commodity bill absorbs the remote
// swap service; the process-aware host diverts it to the system
// account.
func crossMachineExceptionFlood(o Options) plan {
	billings := []string{"jiffy", "process-aware"}
	specs := make([]SwapFloodSpec, 0, 2*len(billings))
	for _, billing := range billings {
		for _, hog := range []bool{false, true} {
			specs = append(specs, SwapFloodSpec{
				Opts:   o,
				Victim: ClusterVictim{Workload: "O", Billing: billing},
				Hog:    hog,
			})
		}
	}
	return declare(specs, RunSwapFlood, swapFloodKey, func(outs []*SwapFloodOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Cluster Exception Flood",
			Title: "Cross-Machine Exception Flooding (memory-hog neighbor vs. shared-swap host)",
			Unit:  "CPU seconds (billed by the victim host's own scheme)",
		}
		groups := []string{"jiffy-host", "procaware-host"}
		labels := []string{"no hog", "memhog neighbor"}
		for bi, group := range groups {
			for hi, label := range labels {
				out := outs[bi*2+hi]
				user, sys := victimBillSeconds(out.Victim)
				fig.Bars = append(fig.Bars, billBar(group, label, user, sys))
			}
		}
		hogged := outs[1] // jiffy host under pressure
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("neighbor hog took %d major faults, issuing %d remote reads + %d remote writebacks against the host's swap (%d request frames at the host NIC)",
				hogged.HogMajorFaults, hogged.RemoteReads, hogged.RemoteWrites, hogged.HostRxPackets),
			"expectation: jiffy-billed host's system time grows with remote swap service (rx interrupts + block-layer work land on the current task); process-aware host's bill is flat",
			fmt.Sprintf("system account on the process-aware host under pressure: %.2f s", outs[3].Victim.Run.SystemAccountSec),
		)
		return fig, nil
	})
}
