package cpu

import (
	"testing"

	"repro/internal/sim"
)

func TestNewDefaults(t *testing.T) {
	c := New(0)
	if c.Clock().Freq() != sim.DefaultCPUHz {
		t.Fatalf("freq = %d, want %d", c.Clock().Freq(), sim.DefaultCPUHz)
	}
	if c.Mode() != Kernel {
		t.Fatalf("boot mode = %v, want kernel", c.Mode())
	}
}

func TestRunChargesMode(t *testing.T) {
	c := New(1_000_000)
	c.SetMode(User)
	c.Run(100)
	c.SetMode(Kernel)
	c.Run(50)
	c.SetMode(Interrupt)
	c.Run(25)
	u, k, i := c.Utilization()
	if u != 100 || k != 50 || i != 25 {
		t.Fatalf("utilization = %d/%d/%d, want 100/50/25", u, k, i)
	}
	if c.TSC() != 175 {
		t.Fatalf("TSC = %d, want 175", c.TSC())
	}
}

func TestIdleAdvancesWithoutCharge(t *testing.T) {
	c := New(1_000_000)
	c.Idle(500)
	u, k, i := c.Utilization()
	if u != 0 || k != 0 || i != 0 {
		t.Fatalf("idle charged cycles: %d/%d/%d", u, k, i)
	}
	if c.TSC() != 500 {
		t.Fatalf("TSC = %d, want 500", c.TSC())
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{User: "user", Kernel: "kernel", Interrupt: "interrupt", Mode(0): "invalid"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestDefaultCostsScaleWithFreq(t *testing.T) {
	lo := DefaultCosts(1_000_000_000)
	hi := DefaultCosts(2_000_000_000)
	if hi.ContextSwitch != 2*lo.ContextSwitch {
		t.Fatalf("ContextSwitch did not scale: %d vs %d", lo.ContextSwitch, hi.ContextSwitch)
	}
	if hi.Fork != 2*lo.Fork {
		t.Fatalf("Fork did not scale: %d vs %d", lo.Fork, hi.Fork)
	}
	// Degenerate tiny frequency must not produce zero-cost microseconds.
	tiny := DefaultCosts(10)
	if tiny.ContextSwitch == 0 {
		t.Fatal("tiny frequency produced zero context-switch cost")
	}
}

func TestCostRelationships(t *testing.T) {
	m := DefaultCosts(sim.DefaultCPUHz)
	// The paper's attack analysis depends on these orderings: a major
	// fault costs more than a minor one, ptrace stop/resume dominates
	// a bare context switch, and execve+linking dominates fork.
	if m.MajorFault <= m.MinorFault {
		t.Fatal("major fault should cost more than minor fault")
	}
	if m.PtraceStop+m.PtraceResume <= m.ContextSwitch {
		t.Fatal("ptrace round trip should cost more than a context switch")
	}
	if m.Execve+m.DynamicLink <= m.Fork {
		t.Fatal("execve+link should cost more than fork")
	}
}

func TestCostsPointsIntoCPU(t *testing.T) {
	c := New(0)
	costs := c.Costs()
	m := *costs
	m.ContextSwitch = 7
	c.SetCosts(m)
	if costs.ContextSwitch != 7 {
		t.Fatalf("Costs() pointer sees ContextSwitch %d after SetCosts, want 7", costs.ContextSwitch)
	}
	cl := c.Clone()
	m.ContextSwitch = 9
	c.SetCosts(m)
	if got := cl.Costs().ContextSwitch; got != 7 {
		t.Fatalf("clone's ContextSwitch = %d after SetCosts on the original, want 7", got)
	}
}
