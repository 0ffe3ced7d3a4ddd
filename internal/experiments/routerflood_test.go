package experiments

import (
	"testing"

	"repro/internal/cluster"
)

func quickRouterFloodSpec(pps uint64) RouterFloodSpec {
	return RouterFloodSpec{
		Opts:           quick(),
		Attackers:      routerFloodAttackers,
		PerAttackerPPS: pps,
		Victim:         ClusterVictim{Workload: "O", Billing: "jiffy"},
		EgressPPS:      routerFloodEgressPPS,
		RED:            routerFloodRED(),
		FlowFrames:     routerFloodFlowFrames,
	}
}

// TestRouterBillGrowsWithOfferedRate pins the scenario's headline:
// the router machine — which the attackers never run an instruction
// on — sees its forwarding daemon's jiffy bill grow with the offered
// attacker packet rate.
func TestRouterBillGrowsWithOfferedRate(t *testing.T) {
	quiet, err := RunRouterFlood(quickRouterFloodSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunRouterFlood(quickRouterFloodSpec(10_000))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunRouterFlood(quickRouterFloodSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	q, s, f := quiet.Router.Total("jiffy"), slow.Router.Total("jiffy"), fast.Router.Total("jiffy")
	if !(q < s && s < f) {
		t.Errorf("router jiffy bill not monotone in offered rate: %.3f (0) / %.3f (10k) / %.3f (20k)", q, s, f)
	}
	if f < q+0.05 {
		t.Errorf("router bill grew only %.4f s from silent to 2x20k pps, want visible inflation", f-q)
	}
	// The bill is for genuine forwarding: the router carried the junk
	// onward (minus egress congestion losses).
	if fast.RouterForwarded == 0 || fast.Carried == 0 {
		t.Errorf("no forwarding behind the bill: carried=%d forwarded=%d", fast.Carried, fast.RouterForwarded)
	}
}

// TestECNFlowBacksOffInsteadOfDropping pins the RED/ECN contract
// under congestion: the ack-paced ECN flow sharing the router's
// egress completes its transfer by backing off on CE marks, while the
// attackers' non-ECN junk absorbs the early drops.
func TestECNFlowBacksOffInsteadOfDropping(t *testing.T) {
	out, err := RunRouterFlood(quickRouterFloodSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Flow.GaveUp || out.Flow.Acked != routerFloodFlowFrames {
		t.Fatalf("flow did not complete under flood: %+v", out.Flow)
	}
	if out.Flow.Backoffs == 0 || out.Flow.Marks == 0 {
		t.Errorf("flow saw no congestion feedback: %+v", out.Flow)
	}
	if out.EgressMarked == 0 {
		t.Error("RED marked no ECN frames on the congested egress")
	}
	if out.EgressEarlyDropped == 0 {
		t.Error("RED early-dropped no junk on the congested egress")
	}
	// Every egress drop was an early drop of non-ECN junk: the ECN
	// flow's frames were marked, not discarded.
	if out.EgressDropped != out.EgressEarlyDropped {
		t.Errorf("egress tail-dropped %d frames past RED, want 0 (ECN flow must not bleed tail-drops)",
			out.EgressDropped-out.EgressEarlyDropped)
	}

	// Without the flood the flow runs clean: no backoffs, no marks.
	quiet, err := RunRouterFlood(quickRouterFloodSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Flow.Acked != routerFloodFlowFrames || quiet.Flow.Backoffs != 0 {
		t.Errorf("quiet flow: %+v, want full transfer with zero backoffs", quiet.Flow)
	}
}

// TestRouterFloodVictimStillBilled mirrors the other cluster
// artifacts' billing contract one hop out: the victim host behind the
// router still absorbs delivered-flood rx interrupts under jiffy
// billing.
func TestRouterFloodVictimStillBilled(t *testing.T) {
	quiet, err := RunRouterFlood(quickRouterFloodSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	flooded, err := RunRouterFlood(quickRouterFloodSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	gain := flooded.Victim.Run.Victim.Total("jiffy") - quiet.Victim.Run.Victim.Total("jiffy")
	if gain <= 0 {
		t.Errorf("victim jiffy bill gained %.4f s behind the router, want inflation", gain)
	}
}

// TestRouterFloodParallelDeterminism mirrors the campaign contract:
// the rendered artifact is byte-identical at any pool size.
func TestRouterFloodParallelDeterminism(t *testing.T) {
	opts := func(par int) Options {
		o := quick()
		o.Parallelism = par
		return o
	}
	seq, err := reproduce("routerflood", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reproduce("routerflood", opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel render diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestRouterFloodRejectsBadSpecs covers spec validation.
func TestRouterFloodRejectsBadSpecs(t *testing.T) {
	bad := quickRouterFloodSpec(10_000)
	bad.Attackers = 0
	if _, err := RunRouterFlood(bad); err == nil {
		t.Error("zero attacker machines accepted")
	}
	bad = quickRouterFloodSpec(10_000)
	bad.Victim.Billing = "bogus-scheme"
	if _, err := RunRouterFlood(bad); err == nil {
		t.Error("unknown billing scheme accepted")
	}
	bad = quickRouterFloodSpec(10_000)
	bad.RED = &cluster.REDSpec{MinDepth: 32, MaxDepth: 8, MaxPct: 50}
	if _, err := RunRouterFlood(bad); err == nil {
		t.Error("inverted RED thresholds accepted")
	}
}
