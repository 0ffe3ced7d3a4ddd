package core

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/integrity"
	"repro/internal/kernel"
	"repro/internal/metering"
	"repro/internal/proc"
)

// evidence reads one job's evidence from a finished machine: its
// usage under every accountant, in the machine's order, its
// counters, the measurement log, the clock and the system account.
func evidence(m *kernel.Machine, job proc.PID, jobName string) Report {
	freq := m.Clock().Freq()
	ev := Report{
		JobName:      jobName,
		JobPID:       job,
		FreqHz:       freq,
		Counters:     m.Stats(job),
		Measurements: m.Measurements(),
		ElapsedSec:   m.Clock().Seconds(m.Clock().Now()),
	}
	for _, acct := range m.Accountants().Accountants() {
		u, _ := m.UsageBy(acct.Name(), job)
		us, ss := u.Seconds(freq)
		ev.Schemes = append(ev.Schemes, SchemeUsage{Scheme: acct.Name(), UserSec: us, SysSec: ss})
	}
	sys, _ := m.UsageBy(TrustedBillingScheme, metering.SystemPID)
	_, ev.SystemAccountSec = sys.Seconds(freq)
	return ev
}

// runJob executes a tiny job and returns the machine and job pid.
func runJob(t *testing.T, tamper func(m *kernel.Machine)) (*kernel.Machine, *Report) {
	t.Helper()
	m := kernel.New(kernel.Config{Seed: 3, CPUHz: 1_000_000_000, MaxSteps: 20_000_000})
	if tamper != nil {
		tamper(m)
	}
	prog := &guest.Program{
		Name:    "job",
		Content: "job-v1",
		Libs:    []string{"libc.so.6"},
		Main: func(ctx guest.Context) {
			ctx.Compute(2_000_000_000) // 2 virtual seconds
			ctx.Call("malloc", 64)
		},
	}
	p, err := m.Spawn(kernel.SpawnConfig{Name: "launcher", Content: "launcher-v1", Body: func(ctx guest.Context) {
		ctx.Exec(prog)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(evidence(m, p.PID, "job"), LegacyBillingScheme, "aik", "nonce-1")
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// manifestFrom harvests an allow-list from a report's own log (the
// trust-on-first-use reference run).
func manifestFrom(rep *Report) *integrity.Manifest {
	pairs := map[string]string{}
	for _, e := range rep.Measurements {
		pairs[e.Name] = e.Digest
	}
	return integrity.NewManifest(pairs)
}

func TestBuildReportSchemes(t *testing.T) {
	_, rep := runJob(t, nil)
	if len(rep.Schemes) != 3 {
		t.Fatalf("schemes = %d, want 3", len(rep.Schemes))
	}
	if rep.Billed.Scheme != "jiffy" {
		t.Fatalf("billed scheme = %s", rep.Billed.Scheme)
	}
	ts, ok := rep.Scheme("tsc")
	if !ok || ts.Total() <= 0 {
		t.Fatalf("tsc scheme missing or zero: %+v", ts)
	}
	if _, ok := rep.Scheme("nope"); ok {
		t.Fatal("unknown scheme found")
	}
}

func TestBuildReportUnknownScheme(t *testing.T) {
	m := kernel.New(kernel.Config{Seed: 1, CPUHz: 1_000_000_000, MaxSteps: 1_000_000})
	p, _ := m.Spawn(kernel.SpawnConfig{Name: "j", Body: func(ctx guest.Context) { ctx.Compute(1000) }})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReport(evidence(m, p.PID, "j"), "bogus", "aik", "n"); err == nil {
		t.Fatal("unknown billing scheme accepted")
	}
}

func TestAuditCleanRunIsTrustworthy(t *testing.T) {
	_, rep := runJob(t, nil)
	aud := &Auditor{
		Manifest: manifestFrom(rep),
		AIKSeed:  "aik",
		Nonce:    "nonce-1",
	}
	v := aud.Audit(rep)
	if !v.Trustworthy {
		t.Fatalf("clean run distrusted: %v", v.Violations())
	}
	if len(v.Findings) == 0 {
		t.Fatal("no findings at all (expected informational entries)")
	}
}

func TestAuditDetectsWrongNonce(t *testing.T) {
	_, rep := runJob(t, nil)
	aud := &Auditor{AIKSeed: "aik", Nonce: "different"}
	v := aud.Audit(rep)
	if v.Trustworthy {
		t.Fatal("replayed report (wrong nonce) trusted")
	}
}

func TestAuditDetectsWrongAIK(t *testing.T) {
	_, rep := runJob(t, nil)
	aud := &Auditor{AIKSeed: "rogue", Nonce: "nonce-1"}
	if v := aud.Audit(rep); v.Trustworthy {
		t.Fatal("quote under unknown key trusted")
	}
}

func TestAuditDetectsLogTampering(t *testing.T) {
	_, rep := runJob(t, nil)
	rep.Measurements = rep.Measurements[:len(rep.Measurements)-1]
	aud := &Auditor{AIKSeed: "aik", Nonce: "nonce-1"}
	v := aud.Audit(rep)
	if v.Trustworthy {
		t.Fatal("tampered measurement log trusted")
	}
	found := false
	for _, f := range v.Violations() {
		if strings.Contains(f.Detail, "replay") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replay violation in %v", v.Findings)
	}
}

func TestAuditDetectsForeignCode(t *testing.T) {
	// Manifest from a clean run, report from a run with an extra
	// preloaded library in the job's context.
	_, cleanRep := runJob(t, nil)
	manifest := manifestFrom(cleanRep)

	_, evilRep := runJob(t, nil)
	// Simulate the preload by appending the evil measurement the
	// kernel would have recorded (cheaper than a full shell run
	// here; the experiments package exercises the full path).
	evilRep.Measurements = append(evilRep.Measurements, kernel.Measurement{
		PID: evilRep.JobPID, TGID: evilRep.JobPID,
		Kind: kernel.MeasureLibrary, Name: "libattack.so", Digest: "deadbeef",
	})
	// Rebuild quote over the tampered-with-honesty log: the provider
	// *honestly reports* the evil library (it cannot omit it without
	// breaking replay).
	log := integrity.BuildLog(evilRep.Measurements, "aik")
	evilRep.Quote = log.Quote("nonce-1")

	aud := &Auditor{Manifest: manifest, AIKSeed: "aik", Nonce: "nonce-1"}
	v := aud.Audit(evilRep)
	if v.Trustworthy {
		t.Fatal("foreign code in job context trusted")
	}
	var hit bool
	for _, f := range v.Violations() {
		if f.Property == SourceIntegrity && strings.Contains(f.Detail, "libattack.so") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no source-integrity violation naming libattack.so: %v", v.Findings)
	}
}

func TestAuditDetectsTraceInterference(t *testing.T) {
	_, rep := runJob(t, nil)
	rep.Counters.TraceStops = 895_000
	rep.Counters.DebugExceptions = 895_000
	aud := &Auditor{AIKSeed: "aik", Nonce: "nonce-1"}
	v := aud.Audit(rep)
	if v.Trustworthy {
		t.Fatal("thrashed execution trusted")
	}
	var hit bool
	for _, f := range v.Violations() {
		if f.Property == ExecutionIntegrity {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no execution-integrity violation: %v", v.Findings)
	}
}

func TestAuditDetectsSchemeDivergence(t *testing.T) {
	_, rep := runJob(t, nil)
	// Inflate the billed figure 20% above the process-aware truth.
	rep.Billed.UserSec = rep.Billed.UserSec*1.2 + 1
	aud := &Auditor{AIKSeed: "aik", Nonce: "nonce-1"}
	v := aud.Audit(rep)
	if v.Trustworthy {
		t.Fatal("diverging bill trusted")
	}
	if v.OverchargeSec <= 0 {
		t.Fatalf("overcharge estimate = %v, want > 0", v.OverchargeSec)
	}
}

func TestAuditDetectsReferenceMismatch(t *testing.T) {
	_, rep := runJob(t, nil)
	aud := &Auditor{
		AIKSeed:   "aik",
		Nonce:     "nonce-1",
		Reference: &Profile{UserSec: rep.Billed.UserSec / 3, SysSec: rep.Billed.SysSec},
	}
	v := aud.Audit(rep)
	if v.Trustworthy {
		t.Fatal("3x-reference bill trusted")
	}
}

func TestAuditAcceptsMatchingReference(t *testing.T) {
	_, rep := runJob(t, nil)
	aud := &Auditor{
		AIKSeed: "aik",
		Nonce:   "nonce-1",
		Reference: &Profile{
			UserSec: rep.Billed.UserSec,
			SysSec:  rep.Billed.SysSec,
		},
	}
	if v := aud.Audit(rep); !v.Trustworthy {
		t.Fatalf("matching reference distrusted: %v", v.Violations())
	}
}

func TestPropertyStrings(t *testing.T) {
	for p, want := range map[Property]string{
		SourceIntegrity: "source-integrity", ExecutionIntegrity: "execution-integrity",
		FineGrainedMetering: "fine-grained-metering", Property(0): "unknown",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d = %q want %q", int(p), got, want)
		}
	}
	f := Finding{Property: SourceIntegrity, Violation: true, Detail: "x"}
	if !strings.Contains(f.String(), "VIOLATION") {
		t.Error("violation finding not marked")
	}
}
