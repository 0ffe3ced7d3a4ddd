// Router flood: attackers inflate a *third party's* bill. N attacker
// machines flood a victim host through a shared router machine — a
// real kernel.Machine running a forwarding guest whose per-frame
// receive interrupts, lookup work, and retransmit syscalls are billed
// through the router's own metering accountant. The attackers never
// run an instruction on the router, yet the router's metered CPU time
// grows with their offered packet rate: the paper's billing
// distortion crossing a machine boundary twice. The router's
// congested egress wire runs RED/ECN queue feedback, so a
// well-behaved ack-paced ECN flow sharing the path backs off under
// marks while the attackers' junk takes the early drops.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/sim"
)

// RouterFloodSpec describes one attackers → router → victim scenario
// executed in deterministic lockstep.
type RouterFloodSpec struct {
	Opts Options
	// Attackers is the number of attacker machines (≥ 1; they may all
	// stay silent at PerAttackerPPS 0 for a baseline).
	Attackers int
	// PerAttackerPPS is each attacker's offered rate; zero keeps the
	// attackers silent.
	PerAttackerPPS uint64
	// Victim is the billed job on the machine behind the router.
	Victim ClusterVictim
	// EgressPPS is the router→victim wire's capacity — the congested
	// hop; zero selects cluster.DefaultLinkPPS.
	EgressPPS uint64
	// RED, when non-nil, arms RED/ECN on the egress wire.
	RED *cluster.REDSpec
	// FlowFrames sizes the well-behaved ack-paced ECN transfer
	// sharing the egress; zero runs no flow.
	FlowFrames uint64
	// LinkLatencyUs is every link's one-way latency; zero selects
	// cluster.DefaultLatencyUs.
	LinkLatencyUs uint64
}

// RouterFloodOut is one routed-flood scenario's harvest.
type RouterFloodOut struct {
	Spec   RouterFloodSpec
	Victim ClusterVictimOut
	// Router is the forwarding daemon's accounted time across schemes
	// — the router machine's bill for work the attackers caused.
	Router PartyUsage
	// RouterForwarded counts frames the router retransmitted;
	// RouterRxDropped counts frames lost to the router's own
	// input-queue overflow when forwarding cannot keep up.
	RouterForwarded, RouterRxDropped uint64
	// Offered/Carried/DroppedIngress sum the attacker→router links.
	Offered, Carried, DroppedIngress uint64
	// EgressMarked/EgressEarlyDropped/EgressDropped are the congested
	// router→victim wire's RED marks, RED early drops, and total
	// drops.
	EgressMarked, EgressEarlyDropped, EgressDropped uint64
	// Flow is the ack-paced ECN transfer's harvest.
	Flow AckFlowStats
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// flowID tags the well-behaved transfer's frames; attacker junk rides
// flow 0 and is drained unacked.
const routerFloodFlowID = 7

// routedFlood is one routed-flood run, harvested once for both
// projections: RunRouterFlood and RunChaosFlood.
type routedFlood struct {
	ranFabric
	// router sums the forwarding daemon's usage, and forwarded its
	// retransmitted frames, over every router incarnation.
	router    PartyUsage
	forwarded uint64
	flow      AckFlowStats
}

// runRoutedFlood builds and runs the routed star under a chaos
// overlay whose zero value injects, crashes and flaps nothing.
// Machines 0..A-1 are the attackers, A the flow sender, A+1 the
// router (a Service machine running the forwarding daemon, and the
// overlay's crash target), A+2 the victim host (billed workload plus
// the flow's echo daemon). Links 0..A join the attackers and the
// sender to the router; link A+1 is the congested router→victim
// egress. who prefixes errors. The flow sender runs the image
// senderContent and writes off outstanding frames after
// flowTimeoutUs without an ack on its guest clock, or after idle
// poll ticks when flowTimeoutUs is zero.
func runRoutedFlood(who string, fl RouterFloodSpec, cs ChaosSpec, flowTimeoutUs uint64, senderContent string) (*routedFlood, error) {
	o := fl.Opts.norm()
	if fl.Attackers < 1 {
		return nil, fmt.Errorf("%s: need at least one attacker machine, have %d", who, fl.Attackers)
	}
	if cs.RouterCrashSec < 0 || cs.RouterRestartSec < 0 {
		return nil, fmt.Errorf("%s: crash/restart times must be non-negative (crash %gs, restart %gs)", who, cs.RouterCrashSec, cs.RouterRestartSec)
	}
	if cs.RouterRestartSec > 0 && cs.RouterCrashSec == 0 {
		return nil, fmt.Errorf("%s: RouterRestartSec %gs without RouterCrashSec (nothing to restart)", who, cs.RouterRestartSec)
	}
	faults, err := cs.faultSpec()
	if err != nil {
		return nil, err
	}
	floodSec, err := floodSeconds(o, fl.Victim)
	if err != nil {
		return nil, err
	}
	if cs.RouterCrashSec > 0 && cs.RouterCrashSec >= 4*floodSec {
		return nil, fmt.Errorf("%s: RouterCrashSec %gs is past the scenario horizon (~%gs flood): the crash would never land", who, cs.RouterCrashSec, floodSec)
	}
	senderIdx, routerIdx, victimIdx := fl.Attackers, fl.Attackers+1, fl.Attackers+2
	perUs := sim.Cycles(uint64(o.Freq) / 1_000_000)
	f := &fabric{o: o, who: who}

	// Attackers: non-ECN junk addressed to the victim, resolved onto
	// each attacker's uplink into the router by its forwarding table.
	pps := fl.PerAttackerPPS
	for a := 0; a < fl.Attackers; a++ {
		f.member(fmt.Sprintf("attacker-%d", a), func(c *cluster.Cluster, m *kernel.Machine) error {
			if pps == 0 {
				return nil // silent baseline
			}
			packets := uint64(floodSec * float64(pps))
			_, err := m.Spawn(kernel.SpawnConfig{
				Name: "pktgen", Content: "junk-ip packet generator v3 (routed)",
				Step: floodBodyStep(o.Freq, pps, packets, guest.Frame{Dst: c.AddrOf(victimIdx)}),
			})
			return err
		})
	}

	// Sender: the well-behaved ECN flow.
	flow := &AckFlowStats{}
	f.member("sender", func(c *cluster.Cluster, m *kernel.Machine) error {
		if fl.FlowFrames == 0 {
			return nil
		}
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "flowsend", Content: senderContent,
			Step: AckPacedSenderStep(AckFlowConfig{
				Peer:          c.AddrOf(victimIdx),
				Flow:          routerFloodFlowID,
				Frames:        fl.FlowFrames,
				PaceCycles:    500 * perUs, // ≤2k pps offered
				TimeoutCycles: sim.Cycles(flowTimeoutUs) * perUs,
			}, flow),
		})
		return err
	})

	// Router: a real billed machine running the forwarding daemon.
	// Boot runs once per incarnation, so the daemon's PID is recorded
	// per incarnation for the cumulative harvest.
	var routerPIDs []proc.PID
	f.member("router", func(_ *cluster.Cluster, m *kernel.Machine) error {
		step, fork := cluster.ForwarderGuest(cluster.DefaultForwardUs * perUs)
		p, err := m.Spawn(kernel.SpawnConfig{
			Name: "fwd", Content: "store-and-forward router daemon v1",
			Step: step, Fork: fork,
		})
		if p != nil {
			routerPIDs = append(routerPIDs, p.PID)
		}
		return err
	})
	router := &f.cfg.Machines[routerIdx]
	router.Service = true
	router.CrashAt = sim.Cycles(cs.RouterCrashSec * float64(o.Freq))
	router.RestartAfter = sim.Cycles(cs.RouterRestartSec * float64(o.Freq))

	// Victim host: the billed workload plus the flow's echo daemon.
	if _, err := f.victim(fl.Victim, func(m *kernel.Machine) error {
		if fl.FlowFrames == 0 {
			return nil
		}
		_, err := m.Spawn(kernel.SpawnConfig{
			Name: "echod", Content: "per-flow ack echo daemon v1", Step: AckEchoStep(routerFloodFlowID),
		})
		return err
	}); err != nil {
		return nil, err
	}
	victim := &f.cfg.Machines[victimIdx]
	victim.Name = "victim"
	// Only the echo daemon makes this a service machine; with no
	// flow the workload keeps exact stall detection.
	victim.Service = fl.FlowFrames > 0
	for i := range f.cfg.Machines {
		f.cfg.Machines[i].Config.Faults = faults
	}

	// Star topology around the router; the egress hop carries the
	// congestion policy and the overlay's flap. Static routes send
	// victim-bound traffic through the router and the victim's acks
	// back the same way.
	for a := 0; a <= senderIdx; a++ { // every attacker, then the sender
		f.cfg.Links = append(f.cfg.Links, cluster.LinkSpec{From: a, To: routerIdx, LatencyUs: fl.LinkLatencyUs})
		f.cfg.Routes = append(f.cfg.Routes, cluster.RouteSpec{On: a, Dst: victimIdx, Via: routerIdx})
	}
	f.cfg.Links = append(f.cfg.Links, cluster.LinkSpec{
		From: routerIdx, To: victimIdx,
		LatencyUs:        fl.LinkLatencyUs,
		PacketsPerSecond: fl.EgressPPS,
		RED:              fl.RED,
		Flap:             cs.VictimFlap,
	})
	f.cfg.Routes = append(f.cfg.Routes, cluster.RouteSpec{On: victimIdx, Dst: senderIdx, Via: routerIdx})

	ran, err := f.run()
	if err != nil {
		return nil, err
	}
	r := &routedFlood{
		ranFabric: ran,
		router: PartyUsage{
			Name: "fwd",
			User: make(map[string]float64, len(Schemes)),
			Sys:  make(map[string]float64, len(Schemes)),
		},
		flow: *flow,
	}
	for k, inc := range r.cl.Incarnations(routerIdx) {
		var pid proc.PID
		if k < len(routerPIDs) {
			pid = routerPIDs[k]
		}
		u := usageOf(inc, "fwd", pid)
		for _, s := range Schemes {
			r.router.User[s] += u.User[s]
			r.router.Sys[s] += u.Sys[s]
		}
		r.forwarded += inc.NIC().Transmitted()
	}
	if len(routerPIDs) > 0 {
		r.router.PID = routerPIDs[0]
	}
	return r, nil
}

// RunRouterFlood executes one scenario on the routed star of
// runRoutedFlood, with no chaos overlay and the idle-tick flow
// timeout.
func RunRouterFlood(spec RouterFloodSpec) (*RouterFloodOut, error) {
	r, err := runRoutedFlood("routerflood "+routerFloodKey(spec), spec, ChaosSpec{}, 0, "ack-paced ecn sender v1")
	if err != nil {
		return nil, err
	}
	out := &RouterFloodOut{
		Spec:            spec,
		Victim:          r.victims[0],
		Router:          r.router,
		RouterForwarded: r.forwarded,
		RouterRxDropped: r.cl.Machine(spec.Attackers + 1).RxBufDropped(),
		Flow:            r.flow,
		ElapsedSec:      r.elapsedSec,
	}
	for a := 0; a < spec.Attackers; a++ {
		l := r.cl.Link(a)
		out.Offered += l.Sent()
		out.Carried += l.Delivered()
		out.DroppedIngress += l.Dropped()
	}
	egress := r.cl.Link(spec.Attackers + 1)
	out.EgressMarked = egress.Marked()
	out.EgressEarlyDropped = egress.EarlyDropped()
	out.EgressDropped = egress.Dropped()
	return out, nil
}

func routerFloodKey(spec RouterFloodSpec) string {
	return fmt.Sprintf("%d-attackers/%dpps/%s", spec.Attackers, spec.PerAttackerPPS, spec.Victim.Billing)
}

// Artifact parameters: two attackers share a router whose 30k-pps
// egress wire runs RED between depths 8 and 24 at up to 50% feedback,
// alongside a 300-frame ack-paced ECN transfer.
const (
	routerFloodAttackers  = 2
	routerFloodEgressPPS  = 30_000
	routerFloodFlowFrames = 300
)

func routerFloodRED() *cluster.REDSpec {
	return &cluster.REDSpec{MinDepth: 8, MaxDepth: 24, MaxPct: 50}
}

// routerFlood regenerates the routed-fabric scenario: two attacker
// machines flood a victim host through a shared router machine at
// increasing rates while an ack-paced ECN flow shares the router's
// RED-managed egress. The router's own jiffy bill — a machine the
// attackers never touch — grows with the offered rate; the ECN flow
// completes by backing off under marks while the junk absorbs the
// early drops.
func routerFlood(o Options) plan {
	rates := []uint64{0, 10_000, 20_000}
	specs := make([]RouterFloodSpec, len(rates))
	for i, pps := range rates {
		specs[i] = RouterFloodSpec{
			Opts:           o,
			Attackers:      routerFloodAttackers,
			PerAttackerPPS: pps,
			Victim:         ClusterVictim{Workload: "O", Billing: "jiffy"},
			EgressPPS:      routerFloodEgressPPS,
			RED:            routerFloodRED(),
			FlowFrames:     routerFloodFlowFrames,
		}
	}
	return declare(specs, RunRouterFlood, routerFloodKey, func(outs []*RouterFloodOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Router Flood",
			Title: "Routed Interrupt Flood (2 attacker PCs through a shared billed router, RED/ECN egress)",
			Unit:  "CPU seconds (jiffy-billed on each owning machine)",
		}
		for ri, pps := range rates {
			out := outs[ri]
			label := "no flood"
			if pps > 0 {
				label = fmt.Sprintf("%dk pps x2", pps/1000)
			}
			fig.Bars = append(fig.Bars,
				billBar("router-fwd", label, out.Router.User["jiffy"], out.Router.Sys["jiffy"]),
				billBar("victim-host", label, out.Victim.Run.Victim.User["jiffy"], out.Victim.Run.Victim.Sys["jiffy"]),
			)
		}
		quiet, worst := outs[0], outs[len(outs)-1]
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("attackers offered %d frames; router forwarded %d and overflowed %d at its input queue; egress RED marked %d ECN frames and early-dropped %d junk frames (total egress drops %d)",
				worst.Offered, worst.RouterForwarded, worst.RouterRxDropped, worst.EgressMarked, worst.EgressEarlyDropped, worst.EgressDropped),
			fmt.Sprintf("ECN flow (%d frames): completed with %d acks, %d ECE backoffs, %d write-offs under flood; %d acks and %d backoffs with no flood (acks past the frame count are retransmission duplicates)",
				routerFloodFlowFrames, worst.Flow.Acked, worst.Flow.Backoffs, worst.Flow.Lost, quiet.Flow.Acked, quiet.Flow.Backoffs),
			"expectation: the router's bill — a machine the attackers never run on — grows with offered rate; the ECN flow backs off under marks instead of tail-dropping",
		)
		return fig, nil
	})
}
