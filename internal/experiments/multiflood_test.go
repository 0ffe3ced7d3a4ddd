package experiments

import (
	"testing"
)

func quickMultiFloodSpec(attackers int, billing string) MultiFloodSpec {
	return MultiFloodSpec{
		Opts:           quick(),
		Attackers:      attackers,
		PerAttackerPPS: multiFloodPerAttackerPPS,
		Victim:         ClusterVictim{Workload: "O", Billing: billing},
		BottleneckPPS:  multiFloodBottleneckPPS,
	}
}

// TestMultiFloodBottleneckSaturates pins the scenario's physics: one
// attacker fits through the shared wire, four oversubscribe it, so
// tail-drops appear and the delivered aggregate stays below the
// offered aggregate while accounting stays exact. The flood window is
// kept shorter than the victim's run so every drop here is a genuine
// queue drop, not a frame offered after the victim finished.
func TestMultiFloodBottleneckSaturates(t *testing.T) {
	short := func(attackers int) MultiFloodSpec {
		s := quickMultiFloodSpec(attackers, "jiffy")
		s.FloodSeconds = 0.2 // victim "O" at quick scale runs ~0.5 s
		return s
	}
	one, err := RunMultiFlood(short(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunMultiFlood(short(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []*MultiFloodOut{one, four} {
		if out.Offered != out.Carried+out.Dropped {
			t.Fatalf("Offered %d != Carried %d + Dropped %d", out.Offered, out.Carried, out.Dropped)
		}
	}
	if one.Dropped > one.Offered/100 {
		t.Errorf("one attacker at 40k pps dropped %d of %d on a 100k wire, want ~none", one.Dropped, one.Offered)
	}
	if four.Dropped < four.Offered/10 {
		t.Errorf("four attackers dropped %d of %d, want heavy tail-drop at 1.6x oversubscription", four.Dropped, four.Offered)
	}
	// Every carried frame lands while the victim still simulates.
	if four.Victim.PacketsReceived != four.Carried {
		t.Errorf("victim received %d, wire carried %d", four.Victim.PacketsReceived, four.Carried)
	}
}

// TestMultiFloodInflatesOnlyCommodityBill mirrors the cluster-flood
// billing contract for the converging scenario.
func TestMultiFloodInflatesOnlyCommodityBill(t *testing.T) {
	jiffyOne, err := RunMultiFlood(quickMultiFloodSpec(1, "jiffy"))
	if err != nil {
		t.Fatal(err)
	}
	jiffyFour, err := RunMultiFlood(quickMultiFloodSpec(4, "jiffy"))
	if err != nil {
		t.Fatal(err)
	}
	gain := jiffyFour.Victim.Run.Victim.Total("jiffy") - jiffyOne.Victim.Run.Victim.Total("jiffy")
	if gain <= 0.01 {
		t.Errorf("jiffy bill gained only %.4f s from 1 to 4 attackers, want visible inflation", gain)
	}
	paOne, err := RunMultiFlood(quickMultiFloodSpec(1, "process-aware"))
	if err != nil {
		t.Fatal(err)
	}
	paFour, err := RunMultiFlood(quickMultiFloodSpec(4, "process-aware"))
	if err != nil {
		t.Fatal(err)
	}
	paGain := paFour.Victim.Run.Victim.Total("process-aware") - paOne.Victim.Run.Victim.Total("process-aware")
	if paGain > 0.01 {
		t.Errorf("process-aware bill gained %.4f s, want ~0 (handler time lands on the system account)", paGain)
	}
	if sys := paFour.Victim.Run.SystemAccountSec; sys <= 0 {
		t.Errorf("system account = %.4f s under a 4-attacker flood, want > 0", sys)
	}
}

// TestMultiFloodParallelDeterminism mirrors the campaign contract:
// the rendered artifact is byte-identical at any pool size.
func TestMultiFloodParallelDeterminism(t *testing.T) {
	opts := func(par int) Options {
		o := quick()
		o.Parallelism = par
		return o
	}
	seq, err := reproduce("multiflood", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reproduce("multiflood", opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel render diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestMultiFloodRejectsBadSpecs covers spec validation.
func TestMultiFloodRejectsBadSpecs(t *testing.T) {
	bad := quickMultiFloodSpec(0, "jiffy")
	if _, err := RunMultiFlood(bad); err == nil {
		t.Error("zero attackers accepted")
	}
	bad = quickMultiFloodSpec(1, "jiffy")
	bad.PerAttackerPPS = 0
	if _, err := RunMultiFlood(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = quickMultiFloodSpec(1, "bogus-scheme")
	if _, err := RunMultiFlood(bad); err == nil {
		t.Error("unknown billing scheme accepted")
	}
}
