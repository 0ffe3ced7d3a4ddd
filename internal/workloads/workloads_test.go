package workloads

import (
	"crypto/md5"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// runProgram executes a built workload on a fresh machine via exec,
// returning the machine and the launcher pid (= billing TGID).
func runProgram(t *testing.T, prog *guest.Program) (*kernel.Machine, *kernel.Machine) {
	t.Helper()
	m := kernel.New(kernel.Config{Seed: 1, CPUHz: 1_000_000_000, MaxSteps: 100_000_000})
	_, err := m.Spawn(kernel.SpawnConfig{Name: prog.Name, Body: func(ctx guest.Context) {
		ctx.Exec(prog)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run %s: %v", prog.Name, err)
	}
	return m, m
}

func params() Params {
	// Short runs for tests: 0.2–0.5 virtual seconds at 1 GHz.
	return Params{Freq: 1_000_000_000, SecondsOverride: 0.3}
}

func TestSpecsComplete(t *testing.T) {
	specs := Specs()
	if len(specs) != 4 {
		t.Fatalf("specs = %d, want 4", len(specs))
	}
	keys := map[string]bool{}
	for _, s := range specs {
		keys[s.Key] = true
		if s.HotAddr == 0 || s.DefaultThrashTouches == 0 || s.Build == nil {
			t.Errorf("spec %s incomplete: %+v", s.Key, s)
		}
	}
	for _, k := range []string{"O", "P", "W", "B"} {
		if !keys[k] {
			t.Errorf("missing spec %s", k)
		}
	}
	if _, err := SpecByKey("P"); err != nil {
		t.Error(err)
	}
	if _, err := SpecByKey("Z"); err == nil {
		t.Error("SpecByKey(Z) should fail")
	}
}

func TestOCompletes(t *testing.T) {
	prog, res := BuildO(params())
	runProgram(t, prog)
	if !res.Done {
		t.Fatal("O did not complete")
	}
	if res.Output != "20000" {
		t.Fatalf("O counter = %s, want 20000 (default touches)", res.Output)
	}
}

func TestPiComputesRealDigits(t *testing.T) {
	prog, res := BuildPi(params())
	runProgram(t, prog)
	if !res.Done {
		t.Fatal("P did not complete")
	}
	const want = "31415926535897932384626433832795028841971693993751"
	if !strings.HasPrefix(res.Output, want) {
		t.Fatalf("pi output prefix = %q, want %q", res.Output[:50], want)
	}
	if len(res.Output) < piDigits-2 {
		t.Fatalf("pi produced %d digits, want ~%d", len(res.Output), piDigits)
	}
}

func TestWhetstoneCompletes(t *testing.T) {
	prog, res := BuildWhetstone(params())
	runProgram(t, prog)
	if !res.Done {
		t.Fatal("W did not complete")
	}
	if !strings.HasPrefix(res.Output, "check=") {
		t.Fatalf("W output = %q", res.Output)
	}
	if strings.Contains(res.Output, "NaN") || strings.Contains(res.Output, "Inf") {
		t.Fatalf("W check diverged: %s", res.Output)
	}
}

func TestBruteFindsPreimage(t *testing.T) {
	prog, res := BuildBrute(params())
	runProgram(t, prog)
	if !res.Done {
		t.Fatal("B did not complete")
	}
	if !strings.HasPrefix(res.Output, BrutePlaintext()+" ") {
		t.Fatalf("B output = %q, want prefix %q", res.Output, BrutePlaintext())
	}
}

func TestBruteHashBatchAllocFree(t *testing.T) {
	target := md5.Sum([]byte(brutePlaintext))
	n := uint64(len(bruteAlphabet))
	var idx uint64
	for _, c := range []byte(brutePlaintext) {
		idx = idx*n + uint64(strings.IndexByte(bruteAlphabet, c))
	}
	lo := idx / bruteBatch * bruteBatch
	if w, ok := bruteHashBatch(lo, lo+bruteBatch, target); !ok || w != brutePlaintext {
		t.Fatalf("batch at %d = %q, %v; want %q", lo, w, ok, brutePlaintext)
	}
	var first, last [4]byte
	bruteWord(&first, 0)
	bruteWord(&last, n*n*n*n-1)
	if string(first[:]) != "aaaa" || string(last[:]) != "zzzz" {
		t.Fatalf("candidate range = %q..%q, want aaaa..zzzz", first, last)
	}
	miss := (lo + bruteBatch) % (n * n * n * n)
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := bruteHashBatch(miss, miss+bruteBatch, target); ok {
			t.Fatal("batch without the plaintext matched")
		}
	})
	if allocs != 0 {
		t.Fatalf("bruteHashBatch allocates %.1f times per %d candidates, want 0", allocs, bruteBatch)
	}
}

func TestBaselineDurationsCalibrated(t *testing.T) {
	// With no override, each program's TSC user time should land on
	// its calibrated baseline (within 5%: request overheads add a
	// little).
	want := map[string]float64{"O": 50, "P": 110, "W": 160, "B": 200}
	for _, s := range Specs() {
		s := s
		t.Run(s.Key, func(t *testing.T) {
			freq := sim.Hz(1_000_000_000)
			prog, _ := s.Build(Params{Freq: freq})
			m := kernel.New(kernel.Config{Seed: 1, CPUHz: freq, MaxSteps: 500_000_000})
			p, err := m.Spawn(kernel.SpawnConfig{Name: prog.Name, Body: func(ctx guest.Context) {
				ctx.Exec(prog)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			u, _ := m.UsageBy("tsc", p.PID)
			got := float64(u.User) / float64(freq)
			if got < want[s.Key]*0.95 || got > want[s.Key]*1.05 {
				t.Fatalf("%s baseline user = %.1fs, want ~%.0fs", s.Key, got, want[s.Key])
			}
		})
	}
}

func TestTouchesParameterHonoured(t *testing.T) {
	p := params()
	p.Touches = 5000
	prog, res := BuildO(p)
	m, _ := runProgram(t, prog)
	_ = m
	if res.Output != "5000" {
		t.Fatalf("O with Touches=5000 looped %s times", res.Output)
	}
}

func TestWhetstoneCallCounts(t *testing.T) {
	if WhetstoneSqrtCalls() != uint64(whetstoneLoops)*sqrtCallsPerLoop {
		t.Fatal("WhetstoneSqrtCalls inconsistent")
	}
	if c := whetstoneChunkAt(1_000_000_000, 160); c == 0 {
		t.Fatal("whetstone chunk = 0")
	}
}

func TestBruteSpawnsThreads(t *testing.T) {
	prog, _ := BuildBrute(params())
	m := kernel.New(kernel.Config{Seed: 1, CPUHz: 1_000_000_000, MaxSteps: 100_000_000})
	p, _ := m.Spawn(kernel.SpawnConfig{Name: prog.Name, Body: func(ctx guest.Context) {
		ctx.Exec(prog)
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats(p.PID)
	if st.ThreadsSpawned != bruteThreads {
		t.Fatalf("threads = %d, want %d", st.ThreadsSpawned, bruteThreads)
	}
	if st.Syscalls == 0 {
		t.Fatal("brute made no syscalls (futex sync expected)")
	}
}
