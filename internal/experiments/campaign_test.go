package experiments

import (
	"strings"
	"testing"
)

// TestRunAllMatchesSequentialRun asserts Matrix.Run's worker pool
// returns the same results, in declaration order, as calling Run spec
// by spec.
func TestRunAllMatchesSequentialRun(t *testing.T) {
	o := quick()
	specs := []RunSpec{
		{Opts: o, Workload: "O"},
		{Opts: o, Workload: "P"},
		{Opts: o, Workload: "W"},
	}
	var mx Matrix
	want := make([]*RunOut, len(specs))
	for i, s := range specs {
		out, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
		mx.Add(s)
	}
	got, err := mx.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i].Spec.Workload != specs[i].Workload {
			t.Errorf("result %d is for %q, want %q (declaration order)", i, got[i].Spec.Workload, specs[i].Workload)
		}
		for _, scheme := range Schemes {
			if g, w := got[i].Victim.Total(scheme), want[i].Victim.Total(scheme); g != w {
				t.Errorf("%s/%s: pooled %v != sequential %v", specs[i].Workload, scheme, g, w)
			}
		}
	}
}

// TestRunAllReportsEarliestError asserts Matrix.Run's deterministic
// error contract: with several failing specs, the earliest-declared
// one is reported regardless of completion order.
func TestRunAllReportsEarliestError(t *testing.T) {
	o := quick()
	var mx Matrix
	for _, s := range []RunSpec{
		{Opts: o, Workload: "O"},
		{Opts: o, Workload: "bogus-1"},
		{Opts: o, Workload: "bogus-2"},
	} {
		mx.Add(s)
	}
	_, err := mx.Run(3)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "run 1") || !strings.Contains(err.Error(), "bogus-1") {
		t.Fatalf("error %q does not name the earliest failing spec", err)
	}
}

// TestMatrixHandles asserts Add's handles index Run's results.
func TestMatrixHandles(t *testing.T) {
	o := quick()
	var mx Matrix
	hW := mx.Add(RunSpec{Opts: o, Workload: "W"})
	hO := mx.Add(RunSpec{Opts: o, Workload: "O"})
	if mx.Len() != 2 {
		t.Fatalf("Len = %d", mx.Len())
	}
	outs, err := mx.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if outs[hW].Spec.Workload != "W" || outs[hO].Spec.Workload != "O" {
		t.Fatalf("handles misindex results: %q, %q", outs[hW].Spec.Workload, outs[hO].Spec.Workload)
	}
}
