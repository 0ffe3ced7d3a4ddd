package kernel

import (
	"os/exec"
	"strings"
	"testing"
)

// TestHotHelpersInline guards the small helpers on the per-request
// path: each must stay within the compiler's inlining budget, since a
// call there costs more than its body (the fork-sweep pass read 6.6%
// slower the one time (*ledger).entry stopped inlining). It builds
// their packages with -gcflags=-m and reads the compiler's reports.
func TestHotHelpersInline(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m",
		"repro/internal/metering", "repro/internal/mem", "repro/internal/kernel").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlined := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if _, fn, ok := strings.Cut(line, ": can inline "); ok {
			inlined[fn] = true
		}
	}
	for _, fn := range []string{"(*ledger).entry", "(*Usage).charge", "(*Space).recentLeaf", "(*Machine).servable", "(*Machine).accrue"} {
		if !inlined[fn] {
			t.Errorf("the compiler no longer reports \"can inline %s\"", fn)
		}
	}
}
