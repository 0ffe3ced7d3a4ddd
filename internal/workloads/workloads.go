// Package workloads implements the paper's four test programs
// (Section V-A) as genuine computations driven through the guest API:
//
//	O — "our program": a CPU-bound loop with a hot control variable.
//	P — Pi: a spigot algorithm that really computes digits of π.
//	W — Whetstone: the classic mixed-kernel benchmark with real
//	    floating-point math and libm calls.
//	B — Brute: a multi-threaded MD5 brute-forcer that really finds
//	    the preimage of a target hash. Every candidate goes through an
//	    MD5 kernel specialised to its 4-byte messages, which rejects it
//	    after step 45 of 64; crypto/md5 confirms the kernel's hits.
//
// Each program charges virtual cycles proportional to the work it
// performs, calibrated so baseline CPU seconds land in the paper's
// range. Each exposes a hot virtual address that the thrashing attack
// watches, and calls malloc/sqrt through the dynamic linker so the
// substitution attack has real call sites.
package workloads

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/sim"
)

// Hot variable addresses, one page apart, fixed per program so the
// thrashing attack can arm watchpoints (paper: O's loop control
// variable, P's y, W's T1, B's count).
const (
	HotAddrO uint64 = 0x0001_0000
	HotAddrP uint64 = 0x0002_0000
	HotAddrW uint64 = 0x0003_0000
	HotAddrB uint64 = 0x0004_0000
)

// Params tunes a workload build.
type Params struct {
	// Freq is the machine's CPU frequency; per-operation cycle costs
	// are derived from it so baseline virtual seconds stay constant
	// across machine configurations. Zero selects the default
	// 2.53 GHz.
	Freq sim.Hz
	// Touches overrides the number of hot-variable accesses the
	// program performs (the thrashing attack raises this to the
	// paper's figures). Zero selects a sparse default.
	Touches uint64
	// SecondsOverride rescales the baseline user-CPU seconds; zero
	// keeps the program's calibrated default.
	SecondsOverride float64
}

func (p Params) freq() sim.Hz {
	if p.Freq == 0 {
		return sim.DefaultCPUHz
	}
	return p.Freq
}

// Result captures what a workload actually computed, so tests can
// verify execution correctness (the threat model's "server does not
// risk the correctness of program execution").
type Result struct {
	// Output is the program's observable result: π digits, the
	// Whetstone checksum, the cracked preimage, or O's counter.
	Output string
	// Done marks that main ran to completion.
	Done bool
}

// Spec describes one victim program.
type Spec struct {
	Key     string // "O", "P", "W", "B"
	Name    string
	HotAddr uint64
	// BaselineSeconds is the calibrated user-CPU baseline at default
	// parameters; experiments scale from it.
	BaselineSeconds float64
	// DefaultThrashTouches is the hot-variable access count the
	// thrashing experiment uses (paper counts, P scaled 10x down).
	DefaultThrashTouches uint64
	// Build constructs the program; the returned Result is filled
	// in as the program runs inside the simulation.
	Build func(p Params) (*guest.Program, *Result)
}

// Specs returns the four victim programs in the paper's order.
func Specs() []Spec {
	return []Spec{
		{Key: "O", Name: "ours", HotAddr: HotAddrO, BaselineSeconds: 50, DefaultThrashTouches: 1_000_000, Build: BuildO},
		{Key: "P", Name: "pi", HotAddr: HotAddrP, BaselineSeconds: 110, DefaultThrashTouches: 1_000_000, Build: BuildPi},
		{Key: "W", Name: "whetstone", HotAddr: HotAddrW, BaselineSeconds: 160, DefaultThrashTouches: 200_000, Build: BuildWhetstone},
		{Key: "B", Name: "brute", HotAddr: HotAddrB, BaselineSeconds: 200, DefaultThrashTouches: 895_000, Build: BuildBrute},
	}
}

// SpecByKey returns the spec for one of "O","P","W","B".
func SpecByKey(key string) (Spec, error) {
	for _, s := range Specs() {
		if s.Key == key {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown program %q", key)
}

// secondsToCycles converts virtual seconds to cycles at freq.
func secondsToCycles(freq sim.Hz, s float64) sim.Cycles {
	return sim.Cycles(s * float64(freq))
}

// splitBudget divides a total cycle budget into n near-equal chunks,
// returning the base chunk and the remainder distributed to the
// first chunks.
func splitBudget(total sim.Cycles, n uint64) (chunk, rem sim.Cycles) {
	if n == 0 {
		n = 1
	}
	return total / sim.Cycles(n), total % sim.Cycles(n)
}

// wsPages is each program's rotating data working set in pages. The
// rotation keeps a realistic spread of page ages, so under the
// exception-flooding attack's memory pressure the colder pages are
// evicted and the program takes major faults on their next use.
const wsPages = 64

// pageSize mirrors mem.DefaultPageSize without importing the package.
const pageSize = 4096

// touchWorkingSet stores into the i-th working-set page of the
// buffer at base.
func touchWorkingSet(ctx guest.Context, base, i uint64) {
	ctx.Store(base + (i%wsPages)*pageSize)
}

// workingSetBytes is the allocation size backing the rotation.
const workingSetBytes = wsPages * pageSize
