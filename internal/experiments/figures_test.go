package experiments

import (
	"strings"
	"testing"
)

func tiny() Options {
	o := quick()
	o.Scale = 0.005
	return o
}

// barPairsRise asserts each program's attack bar exceeds its normal
// bar by at least minGain seconds (0 = just not lower by a tick).
func barPairsRise(t *testing.T, fig *Figure, minGain float64) {
	t.Helper()
	if len(fig.Bars) != 8 {
		t.Fatalf("%s: bars = %d, want 8", fig.ID, len(fig.Bars))
	}
	for i := 0; i+1 < len(fig.Bars); i += 2 {
		normal, attack := fig.Bars[i].Total(), fig.Bars[i+1].Total()
		if attack < normal+minGain {
			t.Errorf("%s %s: attack %.3f < normal %.3f + %.3f",
				fig.ID, fig.Bars[i].Group, attack, normal, minGain)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	fig, err := reproduce("figure5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Constructor payload is 34*scale = 0.17 s on every program.
	barPairsRise(t, fig, 0.1)
}

func TestFigure6Shape(t *testing.T) {
	fig, err := reproduce("figure6", tiny())
	if err != nil {
		t.Fatal(err)
	}
	barPairsRise(t, fig, 0.1)
	// W is the libm-heavy program: its gain must be the largest.
	gains := map[string]float64{}
	for i := 0; i+1 < len(fig.Bars); i += 2 {
		gains[fig.Bars[i].Group] = fig.Bars[i+1].Total() - fig.Bars[i].Total()
	}
	for _, k := range []string{"O", "B"} {
		if gains["W"] <= gains[k] {
			t.Errorf("substitution gain W (%.2f) should exceed %s (%.2f)", gains["W"], k, gains[k])
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	o := tiny()
	o.Scale = 0.02 // storms need some room
	fig, err := reproduce("figure7", o)
	if err != nil {
		t.Fatal(err)
	}
	// 6 groups x 2 bars.
	if len(fig.Bars) != 12 {
		t.Fatalf("bars = %d, want 12", len(fig.Bars))
	}
	// Victim bars (even indices): no-attack <= nice-20, and the
	// gradient is monotone non-decreasing within tolerance.
	victim := make([]float64, 0, 6)
	for i := 0; i < len(fig.Bars); i += 2 {
		victim = append(victim, fig.Bars[i].Total())
	}
	if victim[5] <= victim[0]*1.05 {
		t.Fatalf("nice-20 victim time %.3f not above baseline %.3f", victim[5], victim[0])
	}
	for i := 2; i < 6; i++ {
		if victim[i] < victim[i-1]-0.05 {
			t.Fatalf("gradient not monotone: %v", victim)
		}
	}
	// Fork's billed time under attack is below its independent run.
	forkAlone := fig.Bars[1].Total()
	forkAttack := fig.Bars[11].Total()
	if forkAttack >= forkAlone {
		t.Fatalf("Fork billed %.3f under attack, %.3f alone: theft not reflected", forkAttack, forkAlone)
	}
}

func TestFigure8ThreadedVictimResists(t *testing.T) {
	o := tiny()
	o.Scale = 0.02
	fig7, err := reproduce("figure7", o)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := reproduce("figure8", o)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(fig *Figure) float64 {
		base := fig.Bars[0].Total()
		last := fig.Bars[10].Total() // victim at nice-20
		return (last - base) / base
	}
	w, b := rel(fig7), rel(fig8)
	if b >= w {
		t.Fatalf("B inflation (%.1f%%) should be below W's (%.1f%%): threads absorb the error", b*100, w*100)
	}
}

func TestFigure9SystemTimeRises(t *testing.T) {
	// B's leader must still be in its accounting phase when the
	// tracer attaches, which needs a bit of scale.
	o := tiny()
	o.Scale = 0.02
	fig, err := reproduce("figure9", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Bars) != 8 {
		t.Fatalf("bars = %d", len(fig.Bars))
	}
	for i := 0; i+1 < len(fig.Bars); i += 2 {
		sysNormal := fig.Bars[i].Segments[1].Value
		sysAttack := fig.Bars[i+1].Segments[1].Value
		if sysAttack <= sysNormal {
			t.Errorf("%s: system time %.4f -> %.4f under thrashing",
				fig.Bars[i].Group, sysNormal, sysAttack)
		}
	}
}

func TestFigure10SlightSystemRise(t *testing.T) {
	fig, err := reproduce("figure10", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(fig.Bars); i += 2 {
		normal, attack := fig.Bars[i], fig.Bars[i+1]
		if attack.Segments[1].Value <= normal.Segments[1].Value {
			t.Errorf("%s: no system-time rise", normal.Group)
		}
		// User time must be (nearly) unchanged: the flood costs
		// system time only.
		if du := attack.Segments[0].Value - normal.Segments[0].Value; du > 0.05 {
			t.Errorf("%s: user time moved by %.3f under flood", normal.Group, du)
		}
	}
}

func TestComparisonTableShape(t *testing.T) {
	fig, err := reproduce("comparison", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 attacks", len(fig.Rows))
	}
	text := fig.Render()
	for _, want := range []string{"Shell Attack", "Thrashing", "flood", "vulnerability"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison table missing %q", want)
		}
	}
}

func TestTrustedMitigationRejectsAllAttacks(t *testing.T) {
	// Needs enough scale that every attack's overcharge clears the
	// auditor's 0.25 s absolute noise floor.
	o := tiny()
	o.Scale = 0.02
	fig, err := reproduce("mitigation", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (baseline + 7 attacks)", len(fig.Rows))
	}
	if fig.Rows[0][6] != "TRUSTED" {
		t.Fatalf("baseline verdict = %s", fig.Rows[0][6])
	}
	for _, row := range fig.Rows[1:] {
		if row[0] == "exception flood" {
			// The weakest attack (paper Section V-C): the OOM killer
			// caps it, so at small scale its overcharge can stay
			// under the auditor's noise floor.
			continue
		}
		if row[6] != "REJECTED" {
			t.Errorf("attack %s verdict = %s, want REJECTED", row[0], row[6])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	o := tiny()
	o.Scale = 0.02
	for _, id := range []string{"ablation1", "ablation2", "ablation3", "ablation4"} {
		fig, err := reproduce(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Rows) < 2 {
			t.Fatalf("%s: rows = %d", id, len(fig.Rows))
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	o := tiny()
	a, err := Run(RunSpec{Opts: o, Workload: "P"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunSpec{Opts: o, Workload: "P"})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes {
		if a.Victim.Total(scheme) != b.Victim.Total(scheme) {
			t.Fatalf("scheme %s diverged across identical runs", scheme)
		}
	}
	if a.ElapsedSec != b.ElapsedSec {
		t.Fatal("elapsed diverged")
	}
}
