// Fair-queueing flood: the qdisc layer's headline artifact. One
// attacker machine floods MTU-size junk through the same congested
// egress wire a well-behaved 300-frame ECN flow needs, and the only
// thing that changes between runs is the wire's queueing discipline.
// Under FIFO the junk owns the queue: the flow's frames tail-drop
// behind it, the clock-driven retransmission timeout fires over and
// over, and the transfer's completion time blows up (or the sender
// abandons it). Under DRR the same wire serves flows round-robin by
// byte quantum and sheds buffer from the fattest flow, so the flow
// completes with bounded latency while the junk takes the drops —
// fair queueing caps the distortion an attacker can impose on traffic
// it never addressed.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/textplot"
)

// FairFloodSpec describes one attacker-vs-flow shared-egress scenario
// executed in deterministic lockstep: machine 0 the attacker, 1 the
// flow sender, 2 the victim host (billed workload plus the flow's
// echo daemon), with both uplinks serialising through one Bottleneck
// egress pipe under the selected discipline.
type FairFloodSpec struct {
	Opts Options
	// Qdisc selects the shared egress discipline: cluster.QdiscFIFO
	// (default) or cluster.QdiscDRR.
	Qdisc string
	// QuantumBytes is DRR's per-flow byte quantum; zero selects
	// cluster.DefaultQuantumBytes. Only meaningful with QdiscDRR.
	QuantumBytes uint64
	// AttackerPPS is the junk rate; zero keeps the attacker silent.
	AttackerPPS uint64
	// Victim is the billed job on the victim host.
	Victim ClusterVictim
	// FlowFrames sizes the well-behaved ack-paced ECN transfer
	// (required, ≥ 1 — the flow is the scenario's point).
	FlowFrames uint64
	// EgressPPS is the shared egress wire's capacity in minimum-frame
	// slots per second; zero selects 30000.
	EgressPPS uint64
	// RED, when non-nil, arms RED/ECN on the egress (set Weight for
	// the EWMA estimate).
	RED *cluster.REDSpec
}

// FairFloodOut is one shared-egress scenario's harvest.
type FairFloodOut struct {
	Spec   FairFloodSpec
	Victim ClusterVictimOut
	// Flow is the ack-paced transfer's harvest; FlowDoneSec is its
	// completion instant on the guest clock in virtual seconds.
	Flow        AckFlowStats
	FlowDoneSec float64
	// JunkOffered/JunkDelivered/JunkDropped are the attacker uplink's
	// counters; FlowOffered/FlowDelivered/FlowDropped the sender
	// uplink's. Drops on either include backlog shed by DRR's
	// buffer-steal policy.
	JunkOffered, JunkDelivered, JunkDropped uint64
	FlowOffered, FlowDelivered, FlowDropped uint64
	// EgressMarked/EgressEarlyDropped are the shared pipe's RED marks
	// (on the flow's ECN frames) and early drops (of non-ECN junk),
	// summed over both uplinks.
	EgressMarked, EgressEarlyDropped uint64
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// fairFloodFlowID tags the well-behaved transfer; junk rides flow 0.
const fairFloodFlowID = 9

// RunFairFlood executes one scenario.
func RunFairFlood(spec FairFloodSpec) (*FairFloodOut, error) {
	o := spec.Opts.norm()
	if spec.FlowFrames == 0 {
		return nil, fmt.Errorf("fairflood: FlowFrames must be ≥ 1 (the flow is what fairness is measured on)")
	}
	floodSec, err := floodSeconds(o, spec.Victim)
	if err != nil {
		return nil, err
	}
	const victimIdx = 2
	perUs := sim.Cycles(uint64(o.Freq) / 1_000_000)
	egressPPS := spec.EgressPPS
	if egressPPS == 0 {
		egressPPS = 30_000
	}
	f := &fabric{o: o, who: "fairflood " + fairFloodKey(spec)}

	attacker := f.member("attacker", func(c *cluster.Cluster, m *kernel.Machine) error {
		if spec.AttackerPPS == 0 {
			return nil // silent baseline
		}
		packets := uint64(floodSec * float64(spec.AttackerPPS))
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "pktgen", Content: "junk-ip packet generator v4 (mtu frames)",
			// MTU frames, ~18 serialisation slots each.
			Step: floodBodyStep(o.Freq, spec.AttackerPPS, packets,
				guest.Frame{Dst: c.AddrOf(victimIdx), Bytes: 1500}),
		})
		return err
	})
	flowStats := &AckFlowStats{}
	sender := f.member("sender", func(c *cluster.Cluster, m *kernel.Machine) error {
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "flowsend", Content: "ack-paced ecn sender v2 (clock rto)",
			Step: AckPacedSenderStep(AckFlowConfig{
				Peer:          c.AddrOf(victimIdx),
				Flow:          fairFloodFlowID,
				Frames:        spec.FlowFrames,
				PaceCycles:    500 * perUs,    // ≤2k pps offered
				TimeoutCycles: 20_000 * perUs, // 20 ms retransmission timeout
				FrameBytes:    256,
			}, flowStats),
		})
		return err
	})
	if _, err := f.victim(spec.Victim, func(m *kernel.Machine) error {
		// The echo daemon runs at high priority, like the softirq half
		// of a real network stack: ack latency then reflects the wire
		// under test, not the victim workload's timeslice.
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "echod", Content: "per-flow ack echo daemon v1",
			Step: AckEchoStep(fairFloodFlowID), Nice: -15,
		})
		return err
	}); err != nil {
		return nil, err
	}
	f.cfg.Machines[victimIdx].Name = "victim"
	f.cfg.Machines[victimIdx].Service = true // the echo daemon never exits

	// Both uplinks serialise through one shared egress pipe — the
	// discipline under test.
	for _, from := range []int{attacker, sender} {
		f.cfg.Links = append(f.cfg.Links, cluster.LinkSpec{
			From:             from,
			To:               victimIdx,
			PacketsPerSecond: egressPPS,
			RED:              spec.RED,
			Qdisc:            spec.Qdisc,
			QuantumBytes:     spec.QuantumBytes,
			Bottleneck:       "egress",
		})
	}

	r, err := f.run()
	if err != nil {
		return nil, err
	}
	junk, flow := r.cl.Link(0), r.cl.Link(1)
	return &FairFloodOut{
		Spec:               spec,
		Victim:             r.victims[0],
		Flow:               *flowStats,
		FlowDoneSec:        r.cl.Machine(sender).Clock().Seconds(flowStats.DoneAt),
		JunkOffered:        junk.Sent(),
		JunkDelivered:      junk.Delivered(),
		JunkDropped:        junk.Dropped(),
		FlowOffered:        flow.Sent(),
		FlowDelivered:      flow.Delivered(),
		FlowDropped:        flow.Dropped(),
		EgressMarked:       junk.Marked() + flow.Marked(),
		EgressEarlyDropped: junk.EarlyDropped() + flow.EarlyDropped(),
		ElapsedSec:         r.elapsedSec,
	}, nil
}

func fairFloodKey(spec FairFloodSpec) string {
	q := spec.Qdisc
	if q == "" {
		q = cluster.QdiscFIFO
	}
	return fmt.Sprintf("%s/%dpps", q, spec.AttackerPPS)
}

// Artifact parameters: MTU junk at 4000 pps (~2.4x the 30k-slot
// egress) against a 300-frame ECN flow, EWMA RED between depths 8
// and 32 at up to 50% feedback with weight 2^-6.
const (
	fairFloodAttackerPPS = 4000
	fairFloodEgressPPS   = 30_000
	fairFloodFlowFrames  = 300
)

func fairFloodRED() *cluster.REDSpec {
	return &cluster.REDSpec{MinDepth: 8, MaxDepth: 32, MaxPct: 50, Weight: 6}
}

// fairFlood regenerates the qdisc-fairness artifact: the same
// attacker-vs-flow shared-egress scenario under FIFO (quiet and
// flooded) and under DRR (flooded). FIFO lets the flood starve the
// flow — its completion time explodes against the quiet baseline —
// while DRR's per-flow round robin bounds the flow's latency on the
// very same wire, and the victim host's bill for the junk it never
// asked for shrinks with the junk the fair queue refuses to carry.
func fairFlood(o Options) plan {
	// FIFO runs bare tail-drop (the commodity wire); the DRR run is
	// the managed configuration — per-flow fairness plus EWMA RED/ECN.
	specs := []FairFloodSpec{
		{Qdisc: cluster.QdiscFIFO, AttackerPPS: 0},
		{Qdisc: cluster.QdiscFIFO, AttackerPPS: fairFloodAttackerPPS},
		{Qdisc: cluster.QdiscDRR, AttackerPPS: fairFloodAttackerPPS, RED: fairFloodRED()},
	}
	labels := []string{"fifo quiet", "fifo flood", "drr flood"}
	for i := range specs {
		specs[i].Opts = o
		specs[i].Victim = ClusterVictim{Workload: "O", Billing: "jiffy"}
		specs[i].FlowFrames = fairFloodFlowFrames
		specs[i].EgressPPS = fairFloodEgressPPS
	}
	return declare(specs, RunFairFlood, fairFloodKey, func(outs []*FairFloodOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Fair Flood",
			Title: "Per-Flow Fairness on a Congested Egress (FIFO vs DRR, byte-accurate wire, EWMA RED)",
			Unit:  "virtual seconds (flow completion) / CPU seconds (victim bill)",
		}
		for i, out := range outs {
			status := "done"
			if out.Flow.GaveUp {
				status = "gave up"
			}
			fig.Bars = append(fig.Bars,
				textplot.Bar{Group: "flow-done", Label: labels[i], Segments: []textplot.Segment{
					{Name: status, Value: out.FlowDoneSec},
				}},
				billBar("victim-bill", labels[i], out.Victim.Run.Victim.User["jiffy"], out.Victim.Run.Victim.Sys["jiffy"]),
			)
		}
		fifo, drr := outs[1], outs[2]
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("fifo flood: flow sent %d for %d acks (%d timeouts, %d written off, gave up: %v); junk %d offered / %d delivered / %d dropped",
				fifo.Flow.Sent, fifo.Flow.Acked, fifo.Flow.Timeouts, fifo.Flow.Lost, fifo.Flow.GaveUp,
				fifo.JunkOffered, fifo.JunkDelivered, fifo.JunkDropped),
			fmt.Sprintf("drr flood: flow sent %d for %d acks (%d timeouts, %d written off); junk %d offered / %d delivered / %d dropped; egress RED marked %d, early-dropped %d",
				drr.Flow.Sent, drr.Flow.Acked, drr.Flow.Timeouts, drr.Flow.Lost,
				drr.JunkOffered, drr.JunkDelivered, drr.JunkDropped, drr.EgressMarked, drr.EgressEarlyDropped),
			"expectation: FIFO lets MTU junk starve the 300-frame ECN flow (completion blows up); DRR bounds the flow's completion on the same wire while the junk absorbs the drops",
		)
		return fig, nil
	})
}
