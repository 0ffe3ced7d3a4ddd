package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(v, n=4) (the default "exclusive"
// method), so spreads computed here match an external check. With
// fewer than two samples both quartiles are the lone value.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// tailPercentile applies the rule "report the highest percentile that
// has at least ten samples beyond it": it returns that percentile
// (rounded down) and the sample at it, or ok false when there are too
// few samples for any tail.
func tailPercentile(v []float64) (pct int, value float64, ok bool) {
	n := len(v)
	if n < 11 {
		return 0, 0, false
	}
	s := sorted(v)
	return 100 * (n - 10) / n, s[n-11], true
}
