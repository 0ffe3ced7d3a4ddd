package main

import (
	"os"
	"strings"
	"testing"
)

// TestClusterFlagValidation pins the cluster-mode hardening: bad
// input yields a usage error naming the problem instead of a panic or
// a silently degenerate run.
func TestClusterFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown victim workload", []string{"cluster", "-victims", "0"}, "unknown victim workload"},
		{"empty victims", []string{"cluster", "-victims", " , "}, "no victims"},
		{"negative pps", []string{"cluster", "-pps", "-5"}, "negative"},
		{"zero latency", []string{"cluster", "-latency-us", "0"}, "must be > 0"},
		{"negative latency", []string{"cluster", "-latency-us", "-10"}, "must be > 0"},
		{"negative link pps", []string{"cluster", "-link-pps", "-1"}, ">= 0"},
		{"negative queue depth", []string{"cluster", "-queue-depth", "-2"}, ">= 0"},
		{"red-max without red-min", []string{"cluster", "-red-max", "16"}, "without -red-min"},
		{"red-maxp without red-min", []string{"cluster", "-red-maxp", "80"}, "without -red-min"},
		{"negative red-min", []string{"cluster", "-red-min", "-3"}, "-red-min"},
		{"red-maxp out of range", []string{"cluster", "-red-min", "8", "-red-maxp", "200"}, "1..100"},
		{"red with lossless", []string{"cluster", "-red-min", "8", "-lossless"}, "-lossless"},
		{"inverted red thresholds", []string{"cluster", "-red-min", "30", "-red-max", "8"}, "MinDepth"},
		{"red-weight without red-min", []string{"cluster", "-red-weight", "6"}, "without -red-min"},
		{"red-weight out of range", []string{"cluster", "-red-min", "8", "-red-weight", "20"}, "0..16"},
		{"unknown qdisc", []string{"cluster", "-qdisc", "wfq"}, "unknown -qdisc"},
		{"quantum without drr", []string{"cluster", "-quantum-bytes", "512"}, "requires -qdisc drr"},
		{"negative quantum", []string{"cluster", "-qdisc", "drr", "-quantum-bytes", "-1"}, "negative"},
		{"drr with lossless", []string{"cluster", "-qdisc", "drr", "-lossless"}, "-lossless"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: run(%v) accepted", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestChaosFlagValidation pins the chaos-mode hardening: malformed
// fault probabilities, crash schedules, and flap windows all yield
// usage errors naming the flag before any machine is built.
func TestChaosFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative fault ppm", []string{"chaos", "-fault-ppm", "-1"}, "0..1000000"},
		{"fault ppm over scale", []string{"chaos", "-fault-ppm", "2000000"}, "0..1000000"},
		{"syscalls without ppm", []string{"chaos", "-fault-syscalls", "sendto"}, "without -fault-ppm"},
		{"errno without ppm", []string{"chaos", "-fault-errno", "eio"}, "without -fault-ppm"},
		{"unknown errno", []string{"chaos", "-fault-ppm", "100", "-fault-errno", "ebadf"}, "unknown -fault-errno"},
		{"empty syscall entry", []string{"chaos", "-fault-ppm", "100", "-fault-syscalls", "sendto,,read"}, "empty entry"},
		{"typo'd syscall name", []string{"chaos", "-fault-ppm", "100", "-fault-syscalls", "sendto,sendot"}, "not a known syscall"},
		{"negative crash time", []string{"chaos", "-crash-at", "-1"}, ">= 0"},
		{"negative restart time", []string{"chaos", "-crash-at", "1", "-restart-after", "-0.5"}, ">= 0"},
		{"restart without crash", []string{"chaos", "-restart-after", "0.5"}, "requires -crash-at"},
		{"crash past horizon", []string{"chaos", "-scale", "0.01", "-crash-at", "1000"}, "past the scenario horizon"},
		{"flap wrong arity", []string{"chaos", "-flap", "0.5:0.1"}, "first:down:up"},
		{"flap non-numeric", []string{"chaos", "-flap", "a:b:c"}, "non-negative number"},
		{"flap negative component", []string{"chaos", "-flap", "0.5:-0.1:0.4"}, "non-negative number"},
		{"flap zero down window", []string{"chaos", "-flap", "0.5:0:0.4"}, "zero down window"},
		{"negative pps", []string{"chaos", "-pps", "-5"}, "negative"},
		{"zero latency", []string{"chaos", "-latency-us", "0"}, "must be > 0"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: run(%v) accepted", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestChaosModeRunsAtTinyScale smokes the whole chaos path — faults,
// crash+reboot, and a flapping egress at once — and relies on
// runChaos's own exit-nonzero ledger check for the integrity assert.
func TestChaosModeRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"chaos", "-scale", "0.01", "-pps", "10000",
		"-fault-ppm", "20000", "-crash-at", "0.15", "-restart-after", "0.08",
		"-flap", "0.1:0.03:0.1"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
}

// TestParseVictimsAlternatesBilling pins the victim expansion rule.
func TestParseVictimsAlternatesBilling(t *testing.T) {
	vs, err := parseVictims("O, W ,B")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("parsed %d victims, want 3", len(vs))
	}
	wantBilling := []string{"jiffy", "process-aware", "jiffy"}
	wantWork := []string{"O", "W", "B"}
	for i, v := range vs {
		if v.Workload != wantWork[i] || v.Billing != wantBilling[i] {
			t.Errorf("victim %d = %s/%s, want %s/%s", i, v.Workload, v.Billing, wantWork[i], wantBilling[i])
		}
	}
}

// TestProfileFlagValidation pins the pprof plumbing's up-front path
// check: an unwritable -cpuprofile/-memprofile destination is a usage
// error before any machine is built, not a failure after the run.
func TestProfileFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad cpuprofile path", []string{"meter", "O", "-scale", "0.001", "-cpuprofile", "/nonexistent-dir/cpu.pb"}, "-cpuprofile"},
		{"bad memprofile path", []string{"meter", "O", "-scale", "0.001", "-memprofile", "/nonexistent-dir/mem.pb"}, "-memprofile"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: run(%v) accepted", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestProfileFlagsWriteProfiles smokes the pprof plumbing end to end:
// a tiny metering run with both profiles requested leaves two
// non-empty profile files behind.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	cpu := dir + "/cpu.pb.gz"
	mem := dir + "/mem.pb.gz"
	args := []string{"meter", "O", "-scale", "0.01", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestUnknownCommandAndMissingArgs covers the entry-point errors.
func TestUnknownCommandAndMissingArgs(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"run"}, {"meter"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestClusterModeRunsAtTinyScale smokes the whole cluster path with
// valid flags, including the new wire-shaping ones.
func TestClusterModeRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"cluster", "-victims", "O", "-pps", "5000", "-scale", "0.005",
		"-link-pps", "20000", "-queue-depth", "32"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
}

// TestClusterModeRunsDRRWithEWMARed smokes the qdisc flags end to
// end: a DRR wire with an EWMA RED policy and an explicit quantum.
func TestClusterModeRunsDRRWithEWMARed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"cluster", "-victims", "O", "-pps", "5000", "-scale", "0.005",
		"-link-pps", "20000", "-queue-depth", "32", "-qdisc", "drr", "-quantum-bytes", "3000",
		"-red-min", "8", "-red-max", "24", "-red-weight", "6"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
}

// TestSnapshotResumeFlagValidation pins the checkpoint verbs'
// hardening: missing paths, malformed manifests, and negative knobs
// all yield usage errors naming the problem before any machine runs
// to completion.
func TestSnapshotResumeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) string {
		t.Helper()
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	notJSON := writeFile("garbage.json", "{not json")
	wrongKind := writeFile("wrong.json", `{"kind":"something-else","seed":1,"warmup_cycles":100}`)
	zeroBarrier := writeFile("zero.json", `{"kind":"forklab-checkpoint","seed":1,"warmup_cycles":0}`)

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"snapshot without out", []string{"snapshot"}, "-out is required"},
		{"snapshot negative rounds", []string{"snapshot", "-out", dir + "/m.json", "-rounds", "-1"}, ">= 0"},
		{"snapshot negative pps", []string{"snapshot", "-out", dir + "/m.json", "-pps", "-5"}, ">= 0"},
		{"snapshot negative warmup", []string{"snapshot", "-out", dir + "/m.json", "-warmup", "-0.5"}, ">= 0"},
		{"resume without from", []string{"resume"}, "-from is required"},
		{"resume missing file", []string{"resume", "-from", dir + "/absent.json"}, "no such file"},
		{"resume malformed manifest", []string{"resume", "-from", notJSON}, "parse"},
		{"resume wrong manifest kind", []string{"resume", "-from", wrongKind}, "not a fork-lab checkpoint manifest"},
		{"resume zero barrier", []string{"resume", "-from", zeroBarrier}, "zero warmup barrier"},
		{"resume negative pps", []string{"resume", "-from", zeroBarrier, "-pps", "-1"}, ">= 0"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: run(%v) accepted", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotResumeRoundTrip smokes the full checkpoint surface: the
// snapshot verb warms and checkpoints the fork lab, writing a replay
// manifest; the resume verb replays it, restores an independent fork,
// and runs the fork to completion.
func TestSnapshotResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	manifest := t.TempDir() + "/checkpoint.json"
	if err := run([]string{"snapshot", "-out", manifest}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := run([]string{"resume", "-from", manifest}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	// A barrier past the whole run is refused, not silently forked.
	if err := run([]string{"snapshot", "-out", manifest, "-warmup", "1000"}); err == nil ||
		!strings.Contains(err.Error(), "warmup finished before") {
		t.Fatalf("past-end warmup = %v, want a warmup-finished error", err)
	}
}

// runOutput runs the command and returns what it printed to stdout.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestResumeKeepsTheCheckpointedFlood pins resume's -pps default: a
// fork resumed without -pps runs the flood its manifest checkpointed,
// exactly as with -pps 0. While every verb parsed one shared flag set,
// resume took the cluster verbs' 40,000 default and re-armed the
// flood at that rate.
func TestResumeKeepsTheCheckpointedFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	manifest := t.TempDir() + "/checkpoint.json"
	runOutput(t, "snapshot", "-out", manifest, "-pps", "10000")
	kept := runOutput(t, "resume", "-from", manifest, "-pps", "0")
	if got := runOutput(t, "resume", "-from", manifest); got != kept {
		t.Errorf("resume without -pps printed\n%s\nwhere resume -pps 0 printed\n%s", got, kept)
	}
}

// TestVerbsRejectForeignFlags pins that each verb parses only its own
// flags: a flag that only another verb takes is a usage error, not a
// value the verb silently ignores.
func TestVerbsRejectForeignFlags(t *testing.T) {
	absent := t.TempDir() + "/absent.json"
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"run", "figure4", "-scale", "0.001", "-qdisc", "drr"}, "-qdisc"},
		{[]string{"all", "-sched", "rr", "-attack", "sched"}, "-attack"},
		{[]string{"meter", "O", "-scale", "0.001", "-pps", "5000"}, "-pps"},
		{[]string{"cluster", "-latency-us", "0", "-fault-ppm", "5"}, "-fault-ppm"},
		{[]string{"chaos", "-latency-us", "0", "-victims", "O"}, "-victims"},
		{[]string{"snapshot", "-scale", "0.5"}, "-scale"},
		{[]string{"resume", "-from", absent, "-scale", "0.5"}, "-scale"},
		{[]string{"resume", "-from", absent, "-seed", "7"}, "-seed"},
		{[]string{"list", "-scale", "0.5"}, "-scale"},
	}
	for _, tc := range cases {
		want := "flag provided but not defined: " + tc.flag
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, want)
		}
	}
	args := []string{"run", "figure4", "-scale", "0.001", "figure5"}
	if err := run(args); err == nil || !strings.Contains(err.Error(), `unexpected argument "figure5"`) {
		t.Errorf("run(%v) = %v, want the stray argument refused", args, err)
	}
}
