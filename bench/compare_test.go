package main

import (
	"strings"
	"testing"
)

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// jitter spreads n samples evenly over ±share around v.
func jitter(v, share float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v * (1 - share + 2*share*float64(i)/float64(n-1))
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	base := jitter(100, 0.01, 10) // 99..101, spread ~1%
	cases := []struct {
		name         string
		base, cur    []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same numbers", base, base, false, 0.1, verdictUnchanged},
		{"slower within bound", base, jitter(105, 0.01, 10), false, 0.1, verdictUnchanged},
		{"slower past bound", base, jitter(115, 0.01, 10), false, 0.1, verdictWorse},
		{"faster on every pair", base, jitter(90, 0.01, 10), false, 0.1, verdictBetter},
		{"higher-is-better drop", base, jitter(80, 0.01, 10), true, 0.1, verdictWorse},
		{"higher-is-better gain", base, jitter(120, 0.01, 10), true, 0.1, verdictBetter},
		// A gain needs ten pairs; fewer faster runs only show no loss.
		{"faster but too few pairs", jitter(100, 0.01, 5), jitter(90, 0.01, 5), false, 0.1, verdictUnchanged},
		// Faster on every pair but by less than base's own quartile gap.
		{"win inside base spread", jitter(100, 0.08, 10), jitter(99, 0.08, 10), false, 0.2, verdictUnchanged},
		// Spread wider than the bound: a small loss cannot be told apart.
		{"unresolved when spread exceeds bound", jitter(100, 0.3, 10), jitter(104, 0.3, 10), false, 0.1, verdictUnresolved},
		{"noise on the new side only", base, jitter(100, 0.3, 10), false, 0.1, verdictUnresolved},
		// Noisy, but every new run is better than every base run.
		{"noisy yet all better", jitter(100, 0.2, 4), jitter(50, 0.2, 4), false, 0.1, verdictUnchanged},
		// Noisy, but every new run is worse, and past the bound.
		{"noisy yet all worse", jitter(100, 0.2, 4), jitter(200, 0.2, 4), false, 0.1, verdictWorse},
		{"zero base, zero new", repeat(0, 5), repeat(0, 5), false, 0.1, verdictUnchanged},
	}
	for _, c := range cases {
		if got := judge(c.base, c.cur, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressionsAndFailures(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []specMetric{
		{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.01},
	}}
	runs := func(pass, allocs, errRate float64) []*result {
		var out []*result
		for i := 0; i < 3; i++ {
			out = append(out, &result{Workload: "w", Metrics: map[string]metric{
				"pass_s":          {pass * (1 + 0.001*float64(i)), "s"},
				"allocs_per_pass": {allocs, "count"},
				"error_rate":      {errRate, "ratio"},
				"kernel.run_ms":   {7, "ms"},
			}})
		}
		return out
	}
	base := map[string][]*result{"w": runs(1, 1000, 0)}
	var out strings.Builder
	if compare(&out, spec, base, map[string][]*result{"w": runs(1.02, 1000, 0)}) {
		t.Errorf("within-bound change reported as a regression:\n%s", out.String())
	}
	for _, c := range []struct {
		name string
		cur  []*result
		row  string
	}{
		{"allocs", runs(1, 1020, 0), "allocs_per_pass"},
		{"failures", runs(1, 1000, 0.01), "error_rate"},
	} {
		out.Reset()
		if !compare(&out, spec, base, map[string][]*result{"w": c.cur}) {
			t.Errorf("%s: regression not reported:\n%s", c.name, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, c.row) && !strings.HasSuffix(strings.TrimSpace(line), verdictWorse) {
				t.Errorf("%s: row %q is not judged worse", c.name, line)
			}
		}
	}
	if !strings.Contains(out.String(), "kernel.run_ms") {
		t.Errorf("metrics without a bound should still be listed:\n%s", out.String())
	}
}
