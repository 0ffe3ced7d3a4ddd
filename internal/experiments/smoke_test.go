package experiments

import (
	"testing"

	"repro/internal/attacks"
)

// quick returns options scaled for fast test runs: ~1.5 s victim
// baselines, 1 GHz clock, small RAM so the exception flood bites.
func quick() Options {
	return Options{
		Seed:         7,
		Freq:         1_000_000_000,
		Scale:        0.01,
		PhysMemBytes: 32 << 20,
	}
}

func TestBaselineRun(t *testing.T) {
	out, err := Run(RunSpec{Opts: quick(), Workload: "W"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Done {
		t.Fatal("victim did not complete")
	}
	if out.Victim.Total("jiffy") <= 0 {
		t.Fatalf("no billed time: %+v", out.Victim)
	}
	// Billed (jiffy) should be close to ground truth (tsc) with no
	// attack: within 10%.
	j, ts := out.Victim.Total("jiffy"), out.Victim.Total("tsc")
	if ratio := j / ts; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("baseline jiffy/tsc = %.3f (j=%.2f ts=%.2f), want ~1", ratio, j, ts)
	}
}

func TestShellAttackInflatesUserTime(t *testing.T) {
	o := quick()
	base, err := Run(RunSpec{Opts: o, Workload: "O"})
	if err != nil {
		t.Fatal(err)
	}
	att, err := Run(RunSpec{Opts: o, Workload: "O", Attack: &attacks.ShellAttack{PayloadCycles: payloadCycles(o)}})
	if err != nil {
		t.Fatal(err)
	}
	gain := att.Victim.User["jiffy"] - base.Victim.User["jiffy"]
	want := 34 * o.Scale // 0.34 s
	if gain < want*0.8 || gain > want*1.2 {
		t.Fatalf("user-time gain = %.3f s, want ~%.2f s", gain, want)
	}
	// System time unaffected (within a couple of ticks).
	if att.Victim.Sys["jiffy"] > base.Victim.Sys["jiffy"]+0.05 {
		t.Fatalf("system time moved: %.3f -> %.3f", base.Victim.Sys["jiffy"], att.Victim.Sys["jiffy"])
	}
	// The attack leaves a source-integrity fingerprint: a tampered
	// shell image in the measurement log.
	var tampered bool
	for _, meas := range att.Measurements {
		if meas.Name == "shell" {
			for _, bm := range base.Measurements {
				if bm.Name == "shell" && bm.Digest != meas.Digest {
					tampered = true
				}
			}
		}
	}
	if !tampered {
		t.Fatal("tampered shell not visible in measurement log")
	}
}

func TestCtorAttackMatchesShellAttack(t *testing.T) {
	o := quick()
	shellOut, err := Run(RunSpec{Opts: o, Workload: "P", Attack: &attacks.ShellAttack{PayloadCycles: payloadCycles(o)}})
	if err != nil {
		t.Fatal(err)
	}
	ctorOut, err := Run(RunSpec{Opts: o, Workload: "P", Attack: &attacks.LibraryCtorAttack{PayloadCycles: payloadCycles(o)}})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Fig. 5 ~ Fig. 4 (same payload, different location).
	a, b := shellOut.Victim.Total("jiffy"), ctorOut.Victim.Total("jiffy")
	if diff := a - b; diff < -0.1*a || diff > 0.1*a {
		t.Fatalf("ctor (%.2f) vs shell (%.2f) differ by >10%%", b, a)
	}
}

func TestSubstitutionAmplifiesWithCalls(t *testing.T) {
	o := quick()
	base, err := Run(RunSpec{Opts: o, Workload: "W"})
	if err != nil {
		t.Fatal(err)
	}
	att, err := Run(RunSpec{Opts: o, Workload: "W", Attack: attacks.NewLibrarySubstitutionAttack(o.Freq)})
	if err != nil {
		t.Fatal(err)
	}
	gain := att.Victim.User["jiffy"] - base.Victim.User["jiffy"]
	// W makes ~150k sqrt calls + ~1.9k mallocs at 0.5 ms each
	// => dozens of seconds even in quick mode.
	if gain < 10 {
		t.Fatalf("substitution gain = %.2f s, want >> baseline", gain)
	}
}

func TestThrashingInflatesSystemTime(t *testing.T) {
	o := quick()
	const touches = 20_000
	base, err := Run(RunSpec{Opts: o, Workload: "P", Touches: touches})
	if err != nil {
		t.Fatal(err)
	}
	att, err := Run(RunSpec{Opts: o, Workload: "P", Touches: touches, Attack: attacks.NewThrashingAttack()})
	if err != nil {
		t.Fatal(err)
	}
	if att.VictimStats.DebugExceptions < touches/2 {
		t.Fatalf("watchpoint hits = %d, want most of %d", att.VictimStats.DebugExceptions, touches)
	}
	// Ground truth captures the per-trap kernel work exactly; the
	// jiffy view needs full-scale runs for the sampler to see it.
	if att.Victim.Sys["tsc"] < base.Victim.Sys["tsc"]+0.1 {
		t.Fatalf("tsc system time %.3f -> %.3f: thrashing too weak", base.Victim.Sys["tsc"], att.Victim.Sys["tsc"])
	}
}

func TestInterruptFloodRaisesSystemTime(t *testing.T) {
	o := quick()
	base, err := Run(RunSpec{Opts: o, Workload: "O"})
	if err != nil {
		t.Fatal(err)
	}
	att, err := Run(RunSpec{Opts: o, Workload: "O", Attack: attacks.NewInterruptFloodAttack(100_000)})
	if err != nil {
		t.Fatal(err)
	}
	if att.VictimStats.IRQCycles == 0 {
		t.Fatal("no IRQ cycles landed on victim")
	}
	if att.Victim.Sys["jiffy"] <= base.Victim.Sys["jiffy"] {
		t.Fatalf("system time %.3f -> %.3f: flood had no billed effect",
			base.Victim.Sys["jiffy"], att.Victim.Sys["jiffy"])
	}
	// Total inflation should be modest (paper: weakest attack).
	if att.Victim.Total("jiffy") > base.Victim.Total("jiffy")*1.5 {
		t.Fatalf("flood inflated by >50%%: %.2f -> %.2f", base.Victim.Total("jiffy"), att.Victim.Total("jiffy"))
	}
}

func TestExceptionFloodCausesVictimFaults(t *testing.T) {
	o := quick()
	base, err := Run(RunSpec{Opts: o, Workload: "O"})
	if err != nil {
		t.Fatal(err)
	}
	att, err := Run(RunSpec{Opts: o, Workload: "O", Attack: attacks.NewExceptionFloodAttack(2 * o.PhysMemBytes)})
	if err != nil {
		t.Fatal(err)
	}
	if att.VictimStats.MajorFaults == 0 {
		t.Fatal("victim took no major faults under memory pressure")
	}
	// Quick-mode runs are too short for the jiffy sampler to catch
	// the extra fault-handler time reliably; ground truth must show
	// it. The full-scale figure shows the jiffy effect.
	if att.Victim.Sys["tsc"] <= base.Victim.Sys["tsc"] {
		t.Fatalf("tsc system time %.4f -> %.4f under exception flood",
			base.Victim.Sys["tsc"], att.Victim.Sys["tsc"])
	}
}

func TestSchedulingAttackStealsTicks(t *testing.T) {
	o := quick()
	const forks = 3000
	base, err := Run(RunSpec{Opts: o, Workload: "W"})
	if err != nil {
		t.Fatal(err)
	}
	att, err := Run(RunSpec{Opts: o, Workload: "W", Attack: attacks.NewSchedulingAttack(-20, forks)})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth (tsc) must not move: the victim does the same
	// work. Billed (jiffy) must grow: stolen ticks.
	tsBase, tsAtt := base.Victim.Total("tsc"), att.Victim.Total("tsc")
	if d := tsAtt - tsBase; d < -0.1 || d > 0.1 {
		t.Fatalf("tsc ground truth moved: %.3f -> %.3f", tsBase, tsAtt)
	}
	jBase, jAtt := base.Victim.Total("jiffy"), att.Victim.Total("jiffy")
	if jAtt <= jBase+0.05 {
		t.Fatalf("billed time %.3f -> %.3f: no tick theft", jBase, jAtt)
	}
	t.Logf("billed %.3f -> %.3f (+%.1f%%), truth %.3f", jBase, jAtt, (jAtt-jBase)/jBase*100, tsAtt)
}
