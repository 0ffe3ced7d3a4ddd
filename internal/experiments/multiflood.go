// Multi-attacker flood: N attacker machines converge on one victim
// machine through a shared bottleneck wire. Each attacker's packet
// generator transmits through the billed NIC tx path (NetSend), and
// every attacker→victim link's forward direction serialises through
// one shared ingress pipe with deterministic tail-drop, so aggregate
// delivery saturates at the bottleneck's capacity no matter how many
// attackers pile on: the victim's commodity bill inflates with
// delivered — not offered — packet rate.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
)

// MultiFloodSpec describes one N-attackers → one-victim scenario
// executed in deterministic lockstep.
type MultiFloodSpec struct {
	Opts Options
	// Attackers is the number of attacker machines (≥ 1).
	Attackers int
	// PerAttackerPPS is each attacker's offered transmit rate.
	PerAttackerPPS uint64
	// Victim is the billed machine at the bottleneck's far end.
	Victim ClusterVictim
	// BottleneckPPS is the shared ingress wire's capacity; zero
	// selects cluster.DefaultLinkPPS.
	BottleneckPPS uint64
	// FloodSeconds is each attacker's transmit duration; zero derives
	// 1.5x the victim's baseline so the flood outlives it.
	FloodSeconds float64
}

// MultiFloodOut is one multi-attacker scenario's harvest.
type MultiFloodOut struct {
	Spec   MultiFloodSpec
	Victim ClusterVictimOut
	// Offered/Carried/Dropped sum the attacker links' counters:
	// Offered = Carried + Dropped.
	Offered, Carried, Dropped uint64
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// RunMultiFlood executes one scenario: machines 0..N-1 are the
// attackers, machine N the victim; every attacker link's forward
// direction shares one bottleneck pipe into the victim.
func RunMultiFlood(spec MultiFloodSpec) (*MultiFloodOut, error) {
	o := spec.Opts.norm()
	if spec.Attackers < 1 {
		return nil, fmt.Errorf("multiflood: need at least one attacker, have %d", spec.Attackers)
	}
	if spec.PerAttackerPPS == 0 {
		return nil, fmt.Errorf("multiflood: zero per-attacker rate")
	}
	floodSec := spec.FloodSeconds
	if floodSec <= 0 {
		var err error
		if floodSec, err = floodSeconds(o, spec.Victim); err != nil {
			return nil, err
		}
	}
	f := &fabric{o: o, who: "multiflood " + multiFloodKey(spec)}
	pps := spec.PerAttackerPPS
	packets := uint64(floodSec * float64(pps))
	for a := 0; a < spec.Attackers; a++ {
		f.member("", func(c *cluster.Cluster, m *kernel.Machine) error {
			// Every attacker addresses the victim machine directly;
			// the attacker's forwarding table resolves the frame onto
			// its link into the bottleneck. Transmitting
			// through NetSend (floodBodyStep) bills the tx path and
			// observes the wire's drop feedback; Offered counts
			// what was actually sent.
			_, err := m.Spawn(kernel.SpawnConfig{
				Name: "pktgen", Content: "junk-ip packet generator v2 (tx-path)",
				Step: floodBodyStep(o.Freq, pps, packets, guest.Frame{Dst: c.AddrOf(spec.Attackers)}),
			})
			return err
		})
		f.cfg.Links = append(f.cfg.Links, cluster.LinkSpec{
			From: a, To: spec.Attackers,
			PacketsPerSecond: spec.BottleneckPPS,
			Bottleneck:       "victim-ingress",
		})
	}
	if _, err := f.victim(spec.Victim, nil); err != nil {
		return nil, err
	}

	r, err := f.run()
	if err != nil {
		return nil, err
	}
	out := &MultiFloodOut{Spec: spec, Victim: r.victims[0], ElapsedSec: r.elapsedSec}
	for a := 0; a < spec.Attackers; a++ {
		l := r.cl.Link(a)
		out.Offered += l.Sent()
		out.Carried += l.Delivered()
		out.Dropped += l.Dropped()
	}
	return out, nil
}

func multiFloodKey(spec MultiFloodSpec) string {
	return fmt.Sprintf("%d-attackers/%dpps/%s", spec.Attackers, spec.PerAttackerPPS, spec.Victim.Billing)
}

// multiFloodBottleneckPPS is the artifact's shared ingress capacity:
// a deliberately modest 100k-frame/s last hop, so four attackers at a
// nominal 40k pps each oversubscribe it (~1.35x effective: each
// send's billed tx time stretches the inter-send period below the
// nominal rate).
const multiFloodBottleneckPPS = 100_000

// multiFloodPerAttackerPPS is each attacker's offered rate in the
// artifact.
const multiFloodPerAttackerPPS = 40_000

// multiAttackerFlood regenerates the converging-flood scenario: 1, 2,
// and 4 attacker machines flood one victim through a shared 100k-pps
// bottleneck, once against a jiffy-billed host and once against a
// process-aware host. The commodity bill inflates with the delivered
// rate, which the bottleneck caps: beyond saturation, extra attackers
// only raise the drop count, not the victim's bill.
func multiAttackerFlood(o Options) plan {
	attackerCounts := []int{1, 2, 4}
	billings := []string{"jiffy", "process-aware"}
	specs := make([]MultiFloodSpec, 0, len(attackerCounts)*len(billings))
	for _, billing := range billings {
		for _, n := range attackerCounts {
			specs = append(specs, MultiFloodSpec{
				Opts:           o,
				Attackers:      n,
				PerAttackerPPS: multiFloodPerAttackerPPS,
				Victim:         ClusterVictim{Workload: "O", Billing: billing},
				BottleneckPPS:  multiFloodBottleneckPPS,
			})
		}
	}
	return declare(specs, RunMultiFlood, multiFloodKey, func(outs []*MultiFloodOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Multi-Attacker Flood",
			Title: "Converging Interrupt Flood (N attacker PCs, one victim host, shared 100k-pps bottleneck)",
			Unit:  "CPU seconds (billed by the victim host's own scheme)",
		}
		groups := []string{"jiffy-host", "procaware-host"}
		for bi, group := range groups {
			for ni, n := range attackerCounts {
				out := outs[bi*len(attackerCounts)+ni]
				user, sys := victimBillSeconds(out.Victim)
				fig.Bars = append(fig.Bars, billBar(group, fmt.Sprintf("%d attacker(s)", n), user, sys))
			}
		}
		worst := outs[len(attackerCounts)-1] // jiffy host, 4 attackers
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("4 attackers offered %d frames, wire carried %d, dropped %d (tail-drop at the shared %dk-pps, %d-deep ingress queue, plus frames offered after the victim finished)",
				worst.Offered, worst.Carried, worst.Dropped, multiFloodBottleneckPPS/1000, cluster.DefaultQueueDepth),
			"expectation: jiffy-billed host's system time grows with the delivered rate and saturates at the bottleneck capacity; extra attackers past saturation only raise drops",
			fmt.Sprintf("process-aware host's bill stays flat; its system account at 4 attackers: %.2f s",
				outs[2*len(attackerCounts)-1].Victim.Run.SystemAccountSec),
		)
		return fig, nil
	})
}
