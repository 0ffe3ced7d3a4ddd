package attacks

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/proc"
	"repro/internal/shell"
	"repro/internal/sim"
)

const testFreq sim.Hz = 1_000_000_000

func machine(t *testing.T) *kernel.Machine {
	t.Helper()
	return kernel.New(kernel.Config{Seed: 9, CPUHz: testFreq, MaxSteps: 50_000_000})
}

// victimProg is a CPU-bound victim that calls malloc and sqrt so the
// substitution attack has call sites, and touches a hot address so
// the thrashing attack has a watch target.
func victimProg(calls int) (*guest.Program, *bool) {
	done := new(bool)
	return &guest.Program{
		Name:    "victim",
		Content: "victim-v1",
		Libs:    []string{lib.LibcName, lib.LibmName},
		Main: func(ctx guest.Context) {
			for i := 0; i < calls; i++ {
				ctx.Compute(400_000)
				ctx.Call("malloc", 64)
				ctx.Call("sqrt", 4608308318706860032) // 1e4 bits
				ctx.Load(0x7000)
			}
			*done = true
		},
	}, done
}

// launch runs the victim under cfg/attack and returns its billed and
// exact usage.
// testCalls sizes the victim long enough (~250 ms) that runtime
// attacks attach before it finishes.
const testCalls = 600

func launch(t *testing.T, attack Attack) (jiffy, tsc sim.Cycles, m *kernel.Machine) {
	t.Helper()
	m = machine(t)
	prog, done := victimProg(testCalls)
	shellCfg := shell.Config{Env: map[string]string{}}
	setup := &Setup{
		M:             m,
		Shell:         &shellCfg,
		JobEnv:        map[string]string{},
		VictimName:    "victim",
		VictimHotAddr: 0x7000,
	}
	if attack != nil {
		if err := attack.Arm(setup); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := shell.Launch(m, shellCfg, shell.Job{Prog: prog, Env: setup.JobEnv})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.NIC().StopFlood()
	if !*done {
		t.Fatal("victim did not complete under attack")
	}
	j, _ := m.UsageBy("jiffy", sess.JobPIDs[0])
	ts, _ := m.UsageBy("tsc", sess.JobPIDs[0])
	return j.Total(), ts.Total(), m
}

func TestAllReturnsSevenAttacks(t *testing.T) {
	all := All(testFreq)
	if len(all) != 7 {
		t.Fatalf("All() = %d attacks, want 7", len(all))
	}
	keys := map[string]bool{}
	for _, a := range all {
		if a.Key() == "" || a.Name() == "" {
			t.Errorf("attack with empty identity: %T", a)
		}
		if keys[a.Key()] {
			t.Errorf("duplicate key %s", a.Key())
		}
		keys[a.Key()] = true
		if p := a.Phase(); p != "launch" && p != "runtime" {
			t.Errorf("%s phase = %q", a.Key(), p)
		}
		if tg := a.Targets(); tg != "utime" && tg != "stime" {
			t.Errorf("%s targets = %q", a.Key(), tg)
		}
	}
}

func TestShellAttackAddsExactPayload(t *testing.T) {
	base, baseTSC, _ := launch(t, nil)
	const payload = 40_000_000
	att, attTSC, _ := launch(t, &ShellAttack{PayloadCycles: payload})
	// The gain is the payload plus sub-tick scheduling residue (the
	// longer pre-exec phase shifts context-switch charges slightly).
	if gain := attTSC - baseTSC; gain < payload || gain > payload+50_000 {
		t.Fatalf("tsc gain = %d, want ~%d", gain, payload)
	}
	if att <= base {
		t.Fatal("billed time did not grow")
	}
}

func TestCtorAttackRunsBeforeMain(t *testing.T) {
	const payload = 30_000_000
	_, baseTSC, _ := launch(t, nil)
	_, attTSC, m := launch(t, &LibraryCtorAttack{PayloadCycles: payload})
	// Gain is the payload plus the extra preloaded object's
	// dynamic-link and constructor-dispatch overhead.
	if gain := attTSC - baseTSC; gain < payload || gain > payload+1_000_000 {
		t.Fatalf("tsc gain = %d, want ~%d", gain, payload)
	}
	// The evil library must appear in the measurement log.
	var seen bool
	for _, meas := range m.Measurements() {
		if meas.Name == EvilLibName {
			seen = true
		}
	}
	if !seen {
		t.Fatal("evil library not measured at load")
	}
}

func TestCtorAttackWithDestructorDoubles(t *testing.T) {
	const payload = 10_000_000
	_, ctorOnly, _ := launch(t, &LibraryCtorAttack{PayloadCycles: payload})
	_, both, _ := launch(t, &LibraryCtorAttack{PayloadCycles: payload, WithDestructor: true})
	if d := both - ctorOnly; d < payload || d > payload+10_000 {
		t.Fatalf("destructor added %d cycles, want ~%d", d, payload)
	}
}

func TestSubstitutionChargesPerCall(t *testing.T) {
	_, baseTSC, _ := launch(t, nil)
	const perCall = 100_000
	_, attTSC, _ := launch(t, &LibrarySubstitutionAttack{PerCallCycles: perCall})
	// Victim makes testCalls malloc + testCalls sqrt interposed
	// calls; the extra preloaded object also adds one dynamic-link
	// charge at exec.
	gain := attTSC - baseTSC
	want := sim.Cycles(2 * testCalls * perCall)
	if gain < want || gain > want+1_000_000 {
		t.Fatalf("substitution gain = %d, want ~%d", gain, want)
	}
}

func TestSubstitutionPreservesResults(t *testing.T) {
	// The interposer must still delegate to the genuine sqrt: the
	// victim's completion flag already asserts execution; verify the
	// genuine function's effect via a direct resolution check.
	m := machine(t)
	setup := &Setup{M: m, Shell: &shell.Config{}, JobEnv: map[string]string{}}
	if err := NewLibrarySubstitutionAttack(testFreq).Arm(setup); err != nil {
		t.Fatal(err)
	}
	if setup.JobEnv[lib.PreloadEnv] != EvilLibName {
		t.Fatal("LD_PRELOAD not set by substitution attack")
	}
	evil, ok := m.Registry().Get(EvilLibName)
	if !ok {
		t.Fatal("evil library not installed")
	}
	for _, fn := range []string{"malloc", "sqrt"} {
		if _, ok := evil.Funcs[fn]; !ok {
			t.Errorf("interposer missing %s", fn)
		}
	}
}

func TestThrashingStopsVictim(t *testing.T) {
	_, _, m := launch(t, NewThrashingAttack())
	var found bool
	for pid := proc.PID(1); pid <= 5; pid++ {
		st := m.Stats(pid)
		if st.DebugExceptions > 0 {
			found = true
			if st.TraceStops < st.DebugExceptions {
				t.Fatalf("trace stops %d < debug exceptions %d", st.TraceStops, st.DebugExceptions)
			}
		}
	}
	if !found {
		t.Fatal("no watchpoint hits recorded on any process")
	}
}

func TestThrashingNeedsWatchAddress(t *testing.T) {
	m := machine(t)
	setup := &Setup{M: m, Shell: &shell.Config{}, JobEnv: map[string]string{}, VictimName: "x"}
	if err := NewThrashingAttack().Arm(setup); err == nil {
		t.Fatal("thrashing without a watch address should fail to arm")
	}
}

func TestInterruptFloodDefaultsAndArm(t *testing.T) {
	a := NewInterruptFloodAttack(0)
	if a.PacketsPerSecond == 0 {
		t.Fatal("zero default rate")
	}
	m := machine(t)
	setup := &Setup{M: m, Shell: &shell.Config{}, JobEnv: map[string]string{}}
	if err := a.Arm(setup); err != nil {
		t.Fatal(err)
	}
	if !m.NIC().Active() {
		t.Fatal("flood not started")
	}
	m.NIC().StopFlood()
}

func TestSchedulingAttackDefaults(t *testing.T) {
	a := NewSchedulingAttack(-20, 0)
	if a.Forks != DefaultSchedulingForks {
		t.Fatalf("default forks = %d", a.Forks)
	}
	if a.Nice != -20 {
		t.Fatalf("nice = %d", a.Nice)
	}
}

func TestExceptionFloodDefaults(t *testing.T) {
	a := NewExceptionFloodAttack(0)
	if a.FootprintBytes != 2<<30 {
		t.Fatalf("default footprint = %d, want 2 GiB", a.FootprintBytes)
	}
}
