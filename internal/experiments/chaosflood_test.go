package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

func quickChaosSpec(chaos ChaosSpec) ChaosFloodSpec {
	return ChaosFloodSpec{Flood: quickRouterFloodSpec(20_000), Chaos: chaos}
}

// chaosFloodSec mirrors RunChaosFlood's horizon derivation at quick()
// scale, so crash schedules in tests land inside the scenario.
func chaosFloodSec(t *testing.T) float64 {
	t.Helper()
	s, err := floodSeconds(quick(), ClusterVictim{Workload: "O", Billing: "jiffy"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosZeroOverlayIsInertAndReplayable pins the compatibility
// contract at the scenario level: an empty ChaosSpec injects nothing,
// crashes nothing, runs one router incarnation, completes the flow,
// balances every ledger, and replays bit-for-bit. (The zero-fault
// kernel/cluster paths themselves are pinned bit-for-bit against the
// pre-chaos goldens by TestClusterGoldens; the chaos scenario is not
// byte-comparable to RunRouterFlood because its flow sender
// deliberately arms the clock-driven retransmission timeout, so a
// dead router can never hang it.)
func TestChaosZeroOverlayIsInertAndReplayable(t *testing.T) {
	chaos, err := RunChaosFlood(quickChaosSpec(ChaosSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if chaos.FaultsInjected != 0 || chaos.RouterCrashed || chaos.RouterIncarnations != 1 {
		t.Fatalf("zero overlay was not inert: faults=%d crashed=%v incarnations=%d",
			chaos.FaultsInjected, chaos.RouterCrashed, chaos.RouterIncarnations)
	}
	if chaos.Flow.GaveUp || chaos.Flow.Acked != routerFloodFlowFrames {
		t.Fatalf("healthy flow did not complete: %+v", chaos.Flow)
	}
	if chaos.Flow.SendErrors != 0 || chaos.Flow.RecvErrors != 0 {
		t.Errorf("healthy run surfaced syscall errors: %+v", chaos.Flow)
	}
	if bad := chaos.Unbalanced(); len(bad) > 0 {
		t.Errorf("unbalanced ledgers on a healthy run: %v", bad)
	}
	again, err := RunChaosFlood(quickChaosSpec(ChaosSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if again.Flow != chaos.Flow || again.Links[len(again.Links)-2] != chaos.Links[len(chaos.Links)-2] ||
		again.Router.Total("jiffy") != chaos.Router.Total("jiffy") {
		t.Errorf("healthy rerun diverged:\nfirst  %+v\nsecond %+v", chaos.Flow, again.Flow)
	}
}

// TestChaosFlowRidesOutTransientFaults pins the guest hardening end
// to end (the ackflow audit satellite): under a few percent of
// transient syscall faults on every machine, the ack-paced flow still
// completes its transfer — the retry wrappers absorb the errors — and
// the injection counter proves the faults actually happened.
func TestChaosFlowRidesOutTransientFaults(t *testing.T) {
	out, err := RunChaosFlood(quickChaosSpec(ChaosSpec{FaultPPM: 50_000})) // 5%
	if err != nil {
		t.Fatal(err)
	}
	if out.FaultsInjected == 0 {
		t.Fatal("5% spec injected nothing across four machines")
	}
	if out.Flow.GaveUp || out.Flow.Acked != routerFloodFlowFrames {
		t.Fatalf("flow did not survive 5%% transient faults: %+v", out.Flow)
	}
	if bad := out.Unbalanced(); len(bad) > 0 {
		t.Errorf("unbalanced ledgers under faults: %v", bad)
	}
}

// TestChaosHardFaultsAbandonWithoutHanging pins the other half of
// the retry contract: at 100% EIO on the send path nothing can get
// through, the sender must abandon the transfer (GaveUp, SendErrors
// counted) and the whole cluster still terminates.
func TestChaosHardFaultsAbandonWithoutHanging(t *testing.T) {
	out, err := RunChaosFlood(quickChaosSpec(ChaosSpec{
		FaultPPM:      1_000_000,
		FaultSyscalls: []string{"sendto"},
		FaultErrno:    "eio",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Flow.GaveUp {
		t.Errorf("flow did not give up under 100%% hard send faults: %+v", out.Flow)
	}
	if out.Flow.SendErrors == 0 {
		t.Error("no send errors recorded under 100% injection")
	}
	if out.Flow.Acked != 0 {
		t.Errorf("flow acked %d frames through a dead send path", out.Flow.Acked)
	}
	if bad := out.Unbalanced(); len(bad) > 0 {
		t.Errorf("unbalanced ledgers: %v", bad)
	}
}

// TestChaosRouterCrashTruncatesBillAndBalances is the artifact's
// headline pin: killing the router mid-flood truncates its cumulative
// bill below the healthy run's, the flow gives up against the dead
// hop, and every link's conservation identity still holds — in-flight
// frames become counted drops, not silent losses.
func TestChaosRouterCrashTruncatesBillAndBalances(t *testing.T) {
	floodSec := chaosFloodSec(t)
	healthy, err := RunChaosFlood(quickChaosSpec(ChaosSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := RunChaosFlood(quickChaosSpec(ChaosSpec{RouterCrashSec: floodSec * 0.45}))
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.RouterCrashed || crashed.RouterIncarnations != 1 {
		t.Fatalf("crash did not fire: crashed=%v incarnations=%d", crashed.RouterCrashed, crashed.RouterIncarnations)
	}
	if h, c := healthy.Router.Total("jiffy"), crashed.Router.Total("jiffy"); c >= h {
		t.Errorf("crashed router's bill %.4f >= healthy %.4f, want truncation", c, h)
	}
	if crashed.Router.Total("jiffy") == 0 {
		t.Error("crashed router billed nothing — the pre-crash incarnation's ledger was lost")
	}
	if !crashed.Flow.GaveUp {
		t.Errorf("flow completed through a dead router: %+v", crashed.Flow)
	}
	if bad := crashed.Unbalanced(); len(bad) > 0 {
		t.Errorf("LEDGER VIOLATION through the crash: %v", bad)
	}
}

// TestChaosRestartRecoversFlowWithMonotoneBill pins the reboot path
// at scenario level: crash+restart yields two incarnations, the flow
// recovers and completes, and the cumulative router bill sits between
// the crashed-forever and healthy runs — monotone in service time.
func TestChaosRestartRecoversFlowWithMonotoneBill(t *testing.T) {
	floodSec := chaosFloodSec(t)
	healthy, err := RunChaosFlood(quickChaosSpec(ChaosSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	down, err := RunChaosFlood(quickChaosSpec(ChaosSpec{RouterCrashSec: floodSec * 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	reboot, err := RunChaosFlood(quickChaosSpec(ChaosSpec{
		RouterCrashSec:   floodSec * 0.3,
		RouterRestartSec: floodSec * 0.15,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if reboot.RouterIncarnations != 2 {
		t.Fatalf("incarnations = %d after crash+restart, want 2", reboot.RouterIncarnations)
	}
	if reboot.Flow.GaveUp || reboot.Flow.Acked != routerFloodFlowFrames {
		t.Errorf("flow did not recover across the reboot: %+v", reboot.Flow)
	}
	d, r, h := down.Router.Total("jiffy"), reboot.Router.Total("jiffy"), healthy.Router.Total("jiffy")
	if !(d < r) {
		t.Errorf("cumulative bill not monotone in service: down-forever %.4f, rebooted %.4f", d, r)
	}
	_ = h // the rebooted run can out-bill healthy: the backlog drained after reboot costs extra forwarding
	if bad := reboot.Unbalanced(); len(bad) > 0 {
		t.Errorf("LEDGER VIOLATION across the reboot: %v", bad)
	}
}

// TestChaosFloodParallelDeterminism mirrors the campaign contract for
// the full four-scenario artifact: the render is byte-identical at
// any worker-pool size, injected faults and all.
func TestChaosFloodParallelDeterminism(t *testing.T) {
	opts := func(par int) Options {
		o := quick()
		o.Parallelism = par
		return o
	}
	seq, err := reproduce("chaosflood", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reproduce("chaosflood", opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Render(), par.Render(); s != p {
		t.Errorf("parallel render diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestChaosFloodRejectsBadSpecs covers the scenario validation.
func TestChaosFloodRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name  string
		chaos ChaosSpec
		mut   func(*ChaosFloodSpec)
		want  string
	}{
		{name: "negative crash time", chaos: ChaosSpec{RouterCrashSec: -1}, want: "non-negative"},
		{name: "restart without crash", chaos: ChaosSpec{RouterRestartSec: 0.5}, want: "without RouterCrashSec"},
		{name: "crash past horizon", chaos: ChaosSpec{RouterCrashSec: 1e6}, want: "past the scenario horizon"},
		{name: "unknown errno", chaos: ChaosSpec{FaultPPM: 10, FaultErrno: "ebadf"}, want: "unknown fault errno"},
		{name: "probability past scale", chaos: ChaosSpec{FaultPPM: 2_000_000}, want: "exceeds"},
		{
			name: "no attackers",
			mut:  func(s *ChaosFloodSpec) { s.Flood.Attackers = 0 },
			want: "at least one attacker",
		},
		{
			name:  "flap on the shared egress with a bottleneck",
			chaos: ChaosSpec{VictimFlap: &cluster.FlapSpec{FirstDownUs: 10}},
			want:  "DownUs 0",
		},
	}
	for _, tc := range cases {
		spec := quickChaosSpec(tc.chaos)
		if tc.mut != nil {
			tc.mut(&spec)
		}
		_, err := RunChaosFlood(spec)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
