package cpumeter

import (
	"strings"
	"testing"
)

func TestWorkloadKeys(t *testing.T) {
	keys := WorkloadKeys()
	if len(keys) != 4 || keys[0] != "O" || keys[3] != "B" {
		t.Fatalf("WorkloadKeys = %v", keys)
	}
}

func TestExperimentsListedAndUnknownRejected(t *testing.T) {
	ids := Experiments()
	if len(ids) != 20 {
		t.Fatalf("Experiments() = %d ids: %v", len(ids), ids)
	}
	for _, want := range []string{"figure4", "figure11", "comparison", "mitigation", "ablation1", "cluster", "multiflood", "swapflood", "routerflood", "fairflood", "chaosflood"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := Reproduce("figure99", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAllAttacksDefaults(t *testing.T) {
	if got := len(AllAttacks(0)); got != 7 {
		t.Fatalf("AllAttacks = %d, want 7", got)
	}
}

func TestMeterEndToEnd(t *testing.T) {
	out, err := Meter(JobSpec{Workload: "O", Options: Options{Scale: 0.005}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Done {
		t.Fatal("job incomplete")
	}
	if out.Victim.Total("tsc") <= 0 {
		t.Fatal("no metered time")
	}
}

func TestMeterUnknownWorkload(t *testing.T) {
	if _, err := Meter(JobSpec{Workload: "Z"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestMeterUnknownSchedulerPolicy pins that a bad scheduler policy
// comes back from Meter as an error naming it, not as a panic in the
// machine build.
func TestMeterUnknownSchedulerPolicy(t *testing.T) {
	_, err := Meter(JobSpec{Workload: "W", Options: Options{Scale: 0.005, SchedulerPolicy: "rr"}})
	if err == nil || !strings.Contains(err.Error(), `run W/baseline: unknown scheduler policy "rr"`) {
		t.Fatalf("Meter with policy rr: err = %v, want an unknown-policy error", err)
	}
}

func TestBuildReportAndAuditRoundTrip(t *testing.T) {
	opts := Options{Scale: 0.01}
	ref, err := Meter(JobSpec{Workload: "O", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(ref, LegacyScheme, "aik", "n1")
	if err != nil {
		t.Fatal(err)
	}
	aud := &Auditor{
		Manifest: ManifestFromReference(ref),
		AIKSeed:  "aik",
		Nonce:    "n1",
	}
	v := aud.Audit(rep)
	if !v.Trustworthy {
		t.Fatalf("honest run rejected: %v", v.Violations())
	}

	// A shell-attacked run must be rejected by the same auditor.
	attacked, err := Meter(JobSpec{Workload: "O", Attack: AllAttacks(opts.Freq)[0], Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	badRep, err := BuildReport(attacked, LegacyScheme, "aik", "n1")
	if err != nil {
		t.Fatal(err)
	}
	bv := aud.Audit(badRep)
	if bv.Trustworthy {
		t.Fatal("shell-attacked run accepted")
	}
}

func TestBuildReportWithoutJob(t *testing.T) {
	if _, err := BuildReport(&RunOut{}, LegacyScheme, "a", "n"); err == nil {
		t.Fatal("report without job accepted")
	}
}

func TestReproduceSmallFigure(t *testing.T) {
	fig, err := Reproduce("figure4", Options{Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Bars) != 8 {
		t.Fatalf("figure4 bars = %d, want 8 (4 programs x normal/attack)", len(fig.Bars))
	}
	text := fig.Render()
	for _, want := range []string{"Figure 4", "Shell Attack", "user", "note:"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// The attack bars must exceed their baselines for every program.
	for i := 0; i+1 < len(fig.Bars); i += 2 {
		if fig.Bars[i+1].Total() <= fig.Bars[i].Total() {
			t.Errorf("group %s: attack %f <= normal %f",
				fig.Bars[i].Group, fig.Bars[i+1].Total(), fig.Bars[i].Total())
		}
	}
}
