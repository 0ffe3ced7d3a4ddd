package kernel

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/sim"
)

// TestSyscallTablePrices pins every class's name and service time.
// No golden prices open or brk, so this table is their only check.
// New resolves each class's full charge once: entry, service, exit.
func TestSyscallTablePrices(t *testing.T) {
	wantUs := map[string]sim.Cycles{
		"read": 2, "write": 2, "sendto": 2, "open": 3, "close": 1,
		"stat": 2, "getrusage": 1, "gettime": 1, "futex": 1, "brk": 2,
	}
	names := KnownSyscallNames()
	if len(names) != len(wantUs) || !sort.StringsAreSorted(names) {
		t.Fatalf("KnownSyscallNames() = %v, want the %d classes in sorted order", names, len(wantUs))
	}
	m := testMachine(t)
	defer m.Shutdown()
	c := m.CPU().Costs()
	for _, name := range names {
		sys, ok := lookupSyscall(name)
		if !ok || !IsKnownSyscall(name) || syscallTable[sys].name != name {
			t.Fatalf("%q does not resolve to its own table entry", name)
		}
		us, priced := wantUs[name]
		if !priced || syscallTable[sys].us != us {
			t.Errorf("%s: %d µs, want %d", name, syscallTable[sys].us, us)
		}
		if want := c.SyscallEntry + us*1000 + c.SyscallExit; m.sysCost[sys] != want {
			t.Errorf("%s: charge %d cycles at 1 GHz, want %d", name, m.sysCost[sys], want)
		}
	}
	if IsKnownSyscall("sendot") {
		t.Error(`IsKnownSyscall("sendot") = true`)
	}
}

// TestUnknownSyscallPanics pins that a guest posting a name outside
// the syscall table fails loudly, as an undefined library symbol does,
// naming the task and the name, in both guest forms.
func TestUnknownSyscallPanics(t *testing.T) {
	for _, sc := range []SpawnConfig{
		{Name: "typo-body", Body: func(ctx guest.Context) {
			//simlint:syscall-ok the panic on this typo is the property under test
			_ = ctx.Syscall("sendot") //simlint:errno-ok the call panics before it returns
		}},
		{Name: "typo-step", Step: func(ctx guest.Context, _ guest.Resume) guest.Step {
			//simlint:syscall-ok the panic on this typo is the property under test
			_ = ctx.Syscall("sendot") //simlint:errno-ok the call panics before it returns
			return nil
		}},
	} {
		func() {
			m := testMachine(t)
			if _, err := m.Spawn(sc); err != nil {
				t.Fatal(err)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, sc.Name) || !strings.Contains(msg, `"sendot"`) {
					t.Errorf("%s: panic %q, want one naming the task and \"sendot\"", sc.Name, msg)
				}
				m.Shutdown()
			}()
			_ = m.Run()
		}()
	}
}
