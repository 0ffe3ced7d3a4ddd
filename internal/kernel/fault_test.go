package kernel

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/guest"
	"repro/internal/sim"
)

// TestFaultSpecValidate pins the usage-error surface: a probability
// past the PPM scale or an errno the guest layer does not define is
// rejected by name, and a nil or healthy spec passes.
func TestFaultSpecValidate(t *testing.T) {
	var nilSpec *FaultSpec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec: %v", err)
	}
	good := &FaultSpec{Syscalls: []SyscallFault{{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: PPMScale}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	cases := []struct {
		name string
		spec FaultSpec
		want string
	}{
		{"probability past scale",
			FaultSpec{Syscalls: []SyscallFault{{Name: "read", Errno: guest.EIO, ProbPPM: PPMScale + 1}}},
			"exceeds"},
		{"unknown errno",
			FaultSpec{Syscalls: []SyscallFault{{Name: "read", Errno: 99, ProbPPM: 10}}},
			"unknown errno"},
		{"unknown syscall name",
			//simlint:syscall-ok the rejection of this typo is the property under test
			FaultSpec{Syscalls: []SyscallFault{{Name: "sendot", Errno: guest.EIO, ProbPPM: 10}}},
			"unknown syscall"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// faultProbeBody exercises every injectable request class — named
// syscalls, sends, and receives — with rng-jittered sleeps in
// between, so any divergence between two machines shows up in clocks,
// bills, and counters.
func faultProbeBody(peer device.Addr, sends int) guest.Routine {
	return func(ctx guest.Context) {
		for i := 0; i < sends; i++ {
			//simlint:errno-ok the probe ignores errno by design: divergence must surface in bills and counters alone
			ctx.Syscall("gettime")
			//simlint:errno-ok the probe ignores errno by design: divergence must surface in bills and counters alone
			ctx.NetSend(guest.Frame{Dst: peer, Flow: uint32(i)})
			for {
				if _, ok, err := ctx.NetRecv(); !ok || err != nil {
					break
				}
			}
			ctx.Sleep(ctx.Rand().Jitter(20_000, 5_000))
		}
	}
}

// probeMachine builds one probe machine with a loopback route (every
// tx re-enters the rx buffer) and the given fault table.
func probeMachine(t *testing.T, faults *FaultSpec) *Machine {
	t.Helper()
	m := New(Config{Seed: 42, CPUHz: 1_000_000_000, MaxSteps: 50_000_000, Faults: faults})
	const peer = device.Addr(2)
	tick := m.TickCycles()
	routeOnly(m, peer, func(f device.Frame) bool {
		m.NIC().InjectRxFrame(m.Clock().Now()+tick, f)
		return true
	})
	if _, err := m.Spawn(SpawnConfig{Name: "probe", Body: faultProbeBody(peer, 50)}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZeroPPMFaultSpecIsInert pins the PR's compatibility contract: a
// fault spec whose every probability is zero is never installed,
// draws nothing from any rng stream, and leaves the machine's entire
// history — clock, per-scheme bills, counters — identical to a
// machine with no spec at all.
func TestZeroPPMFaultSpecIsInert(t *testing.T) {
	base := probeMachine(t, nil)
	armed := probeMachine(t, &FaultSpec{Syscalls: []SyscallFault{
		{Name: "sendto", Errno: guest.EIO, ProbPPM: 0},
		{Name: "read", Errno: guest.EAGAIN, ProbPPM: 0},
	}})
	run(t, base)
	run(t, armed)
	if armed.FaultsInjected() != 0 {
		t.Fatalf("FaultsInjected = %d with every probability zero", armed.FaultsInjected())
	}
	if b, a := base.Clock().Now(), armed.Clock().Now(); b != a {
		t.Fatalf("final clocks diverged: %d vs %d", b, a)
	}
	for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
		ub, _ := base.UsageBy(scheme, 1)
		ua, _ := armed.UsageBy(scheme, 1)
		if ub != ua {
			t.Fatalf("%s usage diverged: %+v vs %+v", scheme, ub, ua)
		}
	}
	if sb, sa := base.Stats(1), armed.Stats(1); sb != sa {
		t.Fatalf("task stats diverged: %+v vs %+v", sb, sa)
	}
}

// TestFullPPMInjectsEveryCall pins the injection path end to end: at
// PPMScale every armed request fails with the configured errno — the
// guest sees it, the frame never reaches the wire, and the machine's
// injection counter records each one.
func TestFullPPMInjectsEveryCall(t *testing.T) {
	m := New(Config{Seed: 3, CPUHz: 1_000_000_000, MaxSteps: 50_000_000,
		Faults: &FaultSpec{Syscalls: []SyscallFault{
			{Name: "sendto", Errno: guest.EIO, ProbPPM: PPMScale},
			{Name: "read", Errno: guest.EAGAIN, ProbPPM: PPMScale},
		}}})
	defer m.Shutdown()
	const peer = device.Addr(2)
	var carried int
	routeOnly(m, peer, func(device.Frame) bool {
		carried++
		return true
	})
	const attempts = 8
	var sendErrs, recvErrs, wrongErrno int
	if _, err := m.Spawn(SpawnConfig{Name: "victim", Body: func(ctx guest.Context) {
		for i := 0; i < attempts; i++ {
			if ok, err := ctx.NetSend(guest.Frame{Dst: peer}); err != nil {
				sendErrs++
				if ok || err != guest.EIO {
					wrongErrno++
				}
			}
			if _, ok, err := ctx.NetRecv(); err != nil {
				recvErrs++
				if ok || err != guest.EAGAIN {
					wrongErrno++
				}
			}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if sendErrs != attempts || recvErrs != attempts || wrongErrno != 0 {
		t.Fatalf("sendErrs=%d recvErrs=%d wrongErrno=%d, want %d/%d/0",
			sendErrs, recvErrs, wrongErrno, attempts, attempts)
	}
	if carried != 0 {
		t.Fatalf("wire carried %d frames past a 100%% sendto fault", carried)
	}
	if got := m.FaultsInjected(); got != 2*attempts {
		t.Fatalf("FaultsInjected = %d, want %d", got, 2*attempts)
	}
	if got := m.NIC().Transmitted(); got != 0 {
		t.Fatalf("Transmitted = %d, want 0 (faulted sends never reach the NIC)", got)
	}
}

// TestPartialFaultsReplayBitForBit pins the dedicated fault stream:
// two machines with the same seed and the same mid-probability spec
// inject the identical fault history, so chaos runs are as replayable
// as healthy ones.
func TestPartialFaultsReplayBitForBit(t *testing.T) {
	spec := func() *FaultSpec {
		return &FaultSpec{Syscalls: []SyscallFault{
			{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: 200_000},
			{Name: "read", Errno: guest.ENOMEM, ProbPPM: 200_000},
		}}
	}
	a := probeMachine(t, spec())
	b := probeMachine(t, spec())
	run(t, a)
	run(t, b)
	if a.FaultsInjected() == 0 {
		t.Fatal("20% spec injected nothing across 50 probe rounds")
	}
	if a.FaultsInjected() != b.FaultsInjected() {
		t.Fatalf("fault histories diverged: %d vs %d injections", a.FaultsInjected(), b.FaultsInjected())
	}
	if ca, cb := a.Clock().Now(), b.Clock().Now(); ca != cb {
		t.Fatalf("final clocks diverged: %d vs %d", ca, cb)
	}
	for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
		ua, _ := a.UsageBy(scheme, 1)
		ub, _ := b.UsageBy(scheme, 1)
		if ua != ub {
			t.Fatalf("%s usage diverged: %+v vs %+v", scheme, ua, ub)
		}
	}
}

// TestRetryWrappersRideOutTransients pins the guest-side hardening: a
// transient errno at moderate probability is absorbed by the retry
// wrappers within their clock budget, while the first-attempt path
// performs zero extra syscalls when nothing faults.
func TestRetryWrappersRideOutTransients(t *testing.T) {
	m := New(Config{Seed: 11, CPUHz: 1_000_000_000, MaxSteps: 50_000_000,
		Faults: &FaultSpec{Syscalls: []SyscallFault{
			{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: 300_000},
		}}})
	const peer = device.Addr(2)
	var carried int
	routeOnly(m, peer, func(device.Frame) bool {
		carried++
		return true
	})
	const frames = 40
	const budget = sim.Cycles(1_000_000) // 1 ms of virtual retry time
	var hardFails int
	if _, err := m.Spawn(SpawnConfig{Name: "sender", Body: func(ctx guest.Context) {
		for i := 0; i < frames; i++ {
			if _, err := guest.SendRetry(ctx, guest.Frame{Dst: peer}, budget); err != nil {
				hardFails++
			}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if m.FaultsInjected() == 0 {
		t.Fatal("30% spec injected nothing — the retry path was never exercised")
	}
	if hardFails != 0 {
		t.Fatalf("%d sends failed through a %d-cycle budget against transient faults", hardFails, budget)
	}
	if carried != frames {
		t.Fatalf("wire carried %d frames, want %d (every send eventually got through)", carried, frames)
	}
}
