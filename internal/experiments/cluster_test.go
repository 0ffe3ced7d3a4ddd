package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kernel"
)

func quickClusterSpec(pps uint64) ClusterRunSpec {
	return ClusterRunSpec{
		Opts: quick(),
		Victims: []ClusterVictim{
			{Workload: "O", Billing: "jiffy"},
			{Workload: "O", Billing: "process-aware"},
		},
		FloodPPS: pps,
	}
}

// TestClusterSeedsReproduceExactHistories pins the lockstep engine's
// determinism contract at the scenario level: the same spec replays
// bit-identical victim accounting and packet counts.
func TestClusterSeedsReproduceExactHistories(t *testing.T) {
	a, err := RunCluster(quickClusterSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(quickClusterSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Victims {
		av, bv := a.Victims[i], b.Victims[i]
		if av.PacketsReceived != bv.PacketsReceived {
			t.Errorf("victim %d received %d vs %d packets across same-seed runs", i, av.PacketsReceived, bv.PacketsReceived)
		}
		if av.PacketsReceived == 0 {
			t.Errorf("victim %d received no packets", i)
		}
		for _, scheme := range Schemes {
			if au, bu := av.Run.Victim.Total(scheme), bv.Run.Victim.Total(scheme); au != bu {
				t.Errorf("victim %d %s total %v vs %v across same-seed runs", i, scheme, au, bu)
			}
		}
	}
	if a.ElapsedSec != b.ElapsedSec {
		t.Errorf("elapsed %v vs %v across same-seed runs", a.ElapsedSec, b.ElapsedSec)
	}
}

// TestClusterFloodInflatesOnlyCommodityBill asserts the scenario's
// headline property: the flood inflates the jiffy-billed host's bill
// (system time, Fig. 10's channel) while the process-aware host's own
// bill stays flat because handler time lands on the system account.
func TestClusterFloodInflatesOnlyCommodityBill(t *testing.T) {
	base, err := RunCluster(quickClusterSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	flooded, err := RunCluster(quickClusterSpec(40_000))
	if err != nil {
		t.Fatal(err)
	}

	jiffyGain := flooded.Victims[0].Run.Victim.Total("jiffy") - base.Victims[0].Run.Victim.Total("jiffy")
	if jiffyGain <= 0.01 {
		t.Errorf("jiffy-billed host gained only %.4f s under 40k pps, want visible inflation", jiffyGain)
	}
	paGain := flooded.Victims[1].Run.Victim.Total("process-aware") - base.Victims[1].Run.Victim.Total("process-aware")
	if paGain > 0.01 {
		t.Errorf("process-aware-billed host gained %.4f s, want ~0 (handler time goes to the system account)", paGain)
	}
	if sys := flooded.Victims[1].Run.SystemAccountSec; sys <= 0 {
		t.Errorf("system account = %.4f s under flood, want > 0", sys)
	}
	// The flood crossed a real link: the attacker's transmit count
	// bounds what each victim saw.
	for i, v := range flooded.Victims {
		if v.PacketsReceived == 0 || v.PacketsReceived > flooded.PacketsSent[i] {
			t.Errorf("victim %d received %d of %d sent", i, v.PacketsReceived, flooded.PacketsSent[i])
		}
	}
}

// TestClusterFloodParallelDeterminism mirrors the campaign contract
// for cluster scenarios: the rendered artifact is byte-identical
// whether clusters run sequentially or sharded across the pool.
func TestClusterFloodParallelDeterminism(t *testing.T) {
	opts := func(par int) Options {
		o := quick()
		o.Parallelism = par
		return o
	}
	seq, err := reproduce("cluster", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reproduce("cluster", opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel render diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestLosslessInfiniteRateReplaysClusterArtifact pins backward
// compatibility with the first (idealised) link model: rendering the
// cluster artifact over lossless infinite-rate wires is byte-
// identical to the default finite-capacity wire, whose serialisation
// floor and queue never bind at the artifact's offered rates.
func TestLosslessInfiniteRateReplaysClusterArtifact(t *testing.T) {
	o := quick().norm()
	def, err := render(clusterFloodWith(o, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := render(clusterFloodWith(o, cluster.UnlimitedPPS, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, i := def.Render(), ideal.Render(); d != i {
		t.Errorf("lossless infinite-rate render diverged from default wire\n--- default ---\n%s--- lossless ---\n%s", d, i)
	}
}

// TestRunAllClustersReportsEarliestError pins the campaign's
// deterministic error contract on a plan of whole clusters: the
// earliest-declared failing run is reported with its index and spec,
// whatever order the pool finished in.
func TestRunAllClustersReportsEarliestError(t *testing.T) {
	bad := quickClusterSpec(1000)
	bad.Victims = []ClusterVictim{{Workload: "bogus"}}
	p := declare([]ClusterRunSpec{quickClusterSpec(1000), bad, bad}, RunCluster, clusterKey,
		func([]*ClusterOut) (*Figure, error) { return &Figure{}, nil })
	_, err := render(p, 3)
	if err == nil {
		t.Fatal("want error")
	}
	if got := err.Error(); !strings.Contains(got, "run 1 (1-victims/1000pps)") {
		t.Fatalf("error %q does not name the earliest failing spec", got)
	}
}

// TestVictimHostRefusesUnfinishedJob pins the shared victim host's
// harvest. A host retired before its job finished — shut down right
// after boot, as the cluster retires a quiesced Service machine — is
// refused instead of harvested as a half-run bill; the same host run
// to completion harvests under its default jiffy billing.
func TestVictimHostRefusesUnfinishedJob(t *testing.T) {
	for _, finish := range []bool{false, true} {
		f := &fabric{o: quick().norm(), who: "victim host"}
		if _, err := f.victim(ClusterVictim{Workload: "O"}, nil); err != nil {
			t.Fatal(err)
		}
		spec, host := f.cfg.Machines[0], f.hosts[0]
		m := kernel.New(spec.Config)
		if err := spec.Boot(nil, m); err != nil {
			t.Fatal(err)
		}
		if finish {
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		} else {
			m.Shutdown()
		}
		out, err := host.harvest(m)
		if !finish {
			if err == nil || !strings.Contains(err.Error(), "retired before completion") {
				t.Errorf("retired host harvested: err %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if out.Billing != "jiffy" || !out.Run.Result.Done || out.Run.Victim.Total("jiffy") == 0 {
			t.Errorf("finished host harvest: billing %q, done %v, jiffy bill %v",
				out.Billing, out.Run.Result.Done, out.Run.Victim.Total("jiffy"))
		}
	}
}
