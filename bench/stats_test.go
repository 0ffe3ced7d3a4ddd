package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(v, n=4) with
	// its default method, so spreads agree with ones computed there.
	cases := []struct {
		v          []float64
		med        float64
		q1, q3     float64
		wantSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 1},
		{[]float64{3, 1, 2}, 2, 1, 3, 1},
		{[]float64{1, 5}, 3, 0, 6, 2},
		{[]float64{10, 10, 10, 10}, 10, 10, 10, 0},
		{[]float64{4}, 4, 4, 4, 0},
	}
	for _, c := range cases {
		if got := median(c.v); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.med)
		}
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
		if got := spread(c.v); math.Abs(got-c.wantSpread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.wantSpread)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed, so the rule must sort
		}
		return v
	}
	if _, _, ok := tailPercentile(seq(10)); ok {
		t.Error("10 samples leave no tail with ten samples beyond it")
	}
	cases := []struct {
		n, pct int
		value  float64
	}{
		{11, 9, 1},    // the smallest sample has exactly ten beyond it
		{60, 83, 50},  // ten samples above 50
		{100, 90, 90}, // the classic p90
		{1000, 99, 990},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(seq(c.n))
		if !ok || pct != c.pct || v != c.value {
			t.Errorf("tailPercentile(%d samples) = p%d %v %v, want p%d %v", c.n, pct, v, ok, c.pct, c.value)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("%d samples: %d beyond p%d, want 10", c.n, beyond, pct)
		}
	}
}
