package experiments

import (
	"testing"
)

func quickSwapFloodSpec(billing string, hog bool) SwapFloodSpec {
	return SwapFloodSpec{
		Opts:   quick(),
		Victim: ClusterVictim{Workload: "O", Billing: billing},
		Hog:    hog,
	}
}

// TestSwapFloodPressuresHostThroughSharedSwap pins the scenario's
// mechanics: the neighbor hog actually pages against the shared
// device, its request frames reach the host NIC, and the pressure
// inflates the commodity-billed host without touching the
// process-aware host's own bill.
func TestSwapFloodPressuresHostThroughSharedSwap(t *testing.T) {
	base, err := RunSwapFlood(quickSwapFloodSpec("jiffy", false))
	if err != nil {
		t.Fatal(err)
	}
	hogged, err := RunSwapFlood(quickSwapFloodSpec("jiffy", true))
	if err != nil {
		t.Fatal(err)
	}
	if base.RemoteReads+base.RemoteWrites != 0 || base.HostRxPackets != 0 {
		t.Errorf("baseline saw remote I/O: reads=%d writes=%d rx=%d", base.RemoteReads, base.RemoteWrites, base.HostRxPackets)
	}
	if hogged.HogMajorFaults == 0 {
		t.Fatal("hog took no major faults: no swap pressure generated")
	}
	if hogged.RemoteReads == 0 || hogged.RemoteWrites == 0 {
		t.Fatalf("remote I/O reads=%d writes=%d, want both nonzero", hogged.RemoteReads, hogged.RemoteWrites)
	}
	// One request frame per remote I/O, minus those issued after the
	// host had already finished serving (the hog outlives the victim).
	if hogged.HostRxPackets == 0 || hogged.HostRxPackets > hogged.RemoteReads+hogged.RemoteWrites {
		t.Errorf("host rx = %d, want in (0, %d] (one frame per remote I/O while the host runs)",
			hogged.HostRxPackets, hogged.RemoteReads+hogged.RemoteWrites)
	}

	jiffyGain := hogged.Victim.Run.Victim.Total("jiffy") - base.Victim.Run.Victim.Total("jiffy")
	if jiffyGain <= 0.005 {
		t.Errorf("jiffy bill gained only %.4f s under remote swap pressure, want visible inflation", jiffyGain)
	}

	paBase, err := RunSwapFlood(quickSwapFloodSpec("process-aware", false))
	if err != nil {
		t.Fatal(err)
	}
	paHogged, err := RunSwapFlood(quickSwapFloodSpec("process-aware", true))
	if err != nil {
		t.Fatal(err)
	}
	paGain := paHogged.Victim.Run.Victim.Total("process-aware") - paBase.Victim.Run.Victim.Total("process-aware")
	if paGain > 0.01 {
		t.Errorf("process-aware bill gained %.4f s, want ~0 (remote service lands on the system account)", paGain)
	}
	if sys := paHogged.Victim.Run.SystemAccountSec; sys <= 0 {
		t.Errorf("system account = %.4f s under pressure, want > 0", sys)
	}
}

// TestSwapFloodDeterministic pins exact replay of the lockstep
// shared-swap scenario.
func TestSwapFloodDeterministic(t *testing.T) {
	a, err := RunSwapFlood(quickSwapFloodSpec("jiffy", true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSwapFlood(quickSwapFloodSpec("jiffy", true))
	if err != nil {
		t.Fatal(err)
	}
	if a.HostRxPackets != b.HostRxPackets || a.HogMajorFaults != b.HogMajorFaults || a.ElapsedSec != b.ElapsedSec {
		t.Fatalf("same-seed swapflood diverged: (%d,%d,%f) vs (%d,%d,%f)",
			a.HostRxPackets, a.HogMajorFaults, a.ElapsedSec, b.HostRxPackets, b.HogMajorFaults, b.ElapsedSec)
	}
	for _, scheme := range Schemes {
		if at, bt := a.Victim.Run.Victim.Total(scheme), b.Victim.Run.Victim.Total(scheme); at != bt {
			t.Errorf("%s total %v vs %v across same-seed runs", scheme, at, bt)
		}
	}
}

// TestSwapFloodParallelDeterminism mirrors the campaign contract for
// the artifact.
func TestSwapFloodParallelDeterminism(t *testing.T) {
	opts := func(par int) Options {
		o := quick()
		o.Parallelism = par
		return o
	}
	seq, err := reproduce("swapflood", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reproduce("swapflood", opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel render diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s", s, p)
	}
}
