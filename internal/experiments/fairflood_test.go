package experiments

import (
	"testing"

	"repro/internal/cluster"
)

func quickFairFloodSpec(qdisc string, pps uint64) FairFloodSpec {
	spec := FairFloodSpec{
		Opts:        quick(),
		Qdisc:       qdisc,
		AttackerPPS: pps,
		Victim:      ClusterVictim{Workload: "O", Billing: "jiffy"},
		FlowFrames:  fairFloodFlowFrames,
		EgressPPS:   fairFloodEgressPPS,
	}
	if qdisc == cluster.QdiscDRR {
		spec.RED = fairFloodRED()
	}
	return spec
}

// TestDRRBoundsFlowUnderFlood pins the qdisc tentpole's headline: on
// the same congested egress, FIFO lets MTU junk starve the ECN flow
// (clock-driven timeouts fire, frames are written off, completion
// blows up) while DRR bounds the flow's completion time and delivers
// every one of its frames — the junk, not the flow, absorbs the
// drops.
func TestDRRBoundsFlowUnderFlood(t *testing.T) {
	quiet, err := RunFairFlood(quickFairFloodSpec(cluster.QdiscFIFO, 0))
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := RunFairFlood(quickFairFloodSpec(cluster.QdiscFIFO, fairFloodAttackerPPS))
	if err != nil {
		t.Fatal(err)
	}
	drr, err := RunFairFlood(quickFairFloodSpec(cluster.QdiscDRR, fairFloodAttackerPPS))
	if err != nil {
		t.Fatal(err)
	}

	// Quiet baseline: the flow runs clean.
	if quiet.Flow.Acked < fairFloodFlowFrames || quiet.Flow.Timeouts != 0 || quiet.Flow.Lost != 0 {
		t.Fatalf("quiet flow not clean: %+v", quiet.Flow)
	}
	// FIFO under flood: the flow bleeds drops and its completion
	// explodes against the quiet baseline.
	if fifo.Flow.Lost == 0 || fifo.Flow.Timeouts == 0 {
		t.Errorf("fifo flood starved nothing: %+v", fifo.Flow)
	}
	if fifo.FlowDoneSec < 2*quiet.FlowDoneSec {
		t.Errorf("fifo flood completion %.3fs vs quiet %.3fs, want ≥2x blow-up", fifo.FlowDoneSec, quiet.FlowDoneSec)
	}
	// DRR on the same wire: every flow frame delivered, no write-offs,
	// completion bounded well under the FIFO blow-up.
	if drr.Flow.Acked < fairFloodFlowFrames || drr.Flow.Lost != 0 || drr.FlowDropped != 0 {
		t.Errorf("drr flow not protected: %+v (flow drops %d)", drr.Flow, drr.FlowDropped)
	}
	if drr.FlowDoneSec*3 >= fifo.FlowDoneSec*2 {
		t.Errorf("drr completion %.3fs not meaningfully bounded vs fifo %.3fs", drr.FlowDoneSec, fifo.FlowDoneSec)
	}
	// The junk pays instead: heavy drops on the attacker link, ECN
	// marks (not losses) steering the flow.
	if drr.JunkDropped == 0 || drr.EgressMarked == 0 {
		t.Errorf("drr junk/ECN accounting flat: junk dropped %d, marked %d", drr.JunkDropped, drr.EgressMarked)
	}
}

// TestFairFloodParallelDeterminism mirrors the campaign contract: the
// rendered artifact is byte-identical at any pool size.
func TestFairFloodParallelDeterminism(t *testing.T) {
	opts := func(par int) Options {
		o := quick()
		o.Parallelism = par
		return o
	}
	seq, err := reproduce("fairflood", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reproduce("fairflood", opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel render diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestFairFloodRejectsBadSpecs covers spec validation end to end
// (including the cluster layer's qdisc checks).
func TestFairFloodRejectsBadSpecs(t *testing.T) {
	bad := quickFairFloodSpec(cluster.QdiscDRR, 1000)
	bad.FlowFrames = 0
	if _, err := RunFairFlood(bad); err == nil {
		t.Error("zero FlowFrames accepted")
	}
	bad = quickFairFloodSpec("sfq", 1000)
	if _, err := RunFairFlood(bad); err == nil {
		t.Error("unknown qdisc accepted")
	}
	bad = quickFairFloodSpec(cluster.QdiscFIFO, 1000)
	bad.QuantumBytes = 512
	if _, err := RunFairFlood(bad); err == nil {
		t.Error("quantum on a FIFO wire accepted")
	}
	bad = quickFairFloodSpec(cluster.QdiscDRR, 1000)
	bad.EgressPPS = cluster.UnlimitedPPS
	if _, err := RunFairFlood(bad); err == nil {
		t.Error("DRR on an infinite-rate wire accepted")
	}
	bad = quickFairFloodSpec(cluster.QdiscDRR, 1000)
	bad.RED = &cluster.REDSpec{MinDepth: 8, MaxDepth: 32, MaxPct: 50, Weight: 40}
	if _, err := RunFairFlood(bad); err == nil {
		t.Error("absurd RED EWMA weight accepted")
	}
}
