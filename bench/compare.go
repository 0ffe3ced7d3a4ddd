package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts. A metric is better only by the gain rule, worse only past
// its bound, and unresolved when run-to-run spread is wider than the
// bound; unchanged is a metric within its bound.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // no bound: reported, not judged
)

// minGainPairs is the fewest base/new pairs a gain may rest on.
const minGainPairs = 10

// judge compares base and new runs of one metric. The gain rule: new
// wins at least nine tenths of the pairs (base[i] against new[i], ties
// counting for neither) over at least ten pairs, and the medians differ
// by more than base's interquartile range. Otherwise the metric is
// worse when new's median is worse than base's by more than bound
// (a share of base's median); but when either side's spread exceeds
// the bound the metric is unresolved, unless every new run reads
// better — or, past the bound, worse — than every base run.
func judge(base, cur []float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	mb, mc := median(base), median(cur)
	pairs := min(len(base), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(base)
	if pairs >= minGainPairs && float64(wins) >= 0.9*float64(pairs) && better(mc, mb) && math.Abs(mc-mb) > q3-q1 {
		return verdictBetter
	}

	// loss is how much worse new's median is, as a share of base's.
	loss := (mc - mb) / math.Abs(mb)
	if higherBetter {
		loss = -loss
	}
	if mb == 0 {
		loss = 0
		if better(mb, mc) {
			loss = math.Inf(1)
		}
	}
	allBetter, allWorse := true, true
	for _, c := range cur {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
			allWorse = allWorse && better(b, c)
		}
	}
	noisy := relSpread(base) > bound || relSpread(cur) > bound
	switch {
	case loss > bound && (!noisy || allWorse):
		return verdictWorse
	case noisy && !allBetter:
		return verdictUnresolved
	}
	return verdictUnchanged
}

// relSpread is spread with a zero median handled: no spread at all is
// zero, any spread around a zero median is unbounded.
func relSpread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if q3 == q1 {
		return 0
	}
	if median(v) == 0 {
		return math.Inf(1)
	}
	return spread(v)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "", "BENCHMARK.json holding the bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] base.json... vs new.json...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var baseFiles, newFiles []string
	seenVs := false
	for _, a := range fs.Args() {
		switch {
		case a == "vs" && !seenVs:
			seenVs = true
		case seenVs:
			newFiles = append(newFiles, a)
		default:
			baseFiles = append(baseFiles, a)
		}
	}
	if len(baseFiles) == 0 || len(newFiles) == 0 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	base, err := loadResults(baseFiles)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	cur, err := loadResults(newFiles)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	if compare(stdout, spec, base, cur) {
		return 1
	}
	return 0
}

func loadSpec(path string) (*benchmarkSpec, error) {
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = "../BENCHMARK.json"
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads saved runs (bench run -out) and groups them by
// workload, in file order.
func loadResults(paths []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a saved bench run (no workload)", p)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

// compare prints one row per workload and metric found on both sides
// and reports whether any metric regressed past its bound.
func compare(w io.Writer, spec *benchmarkSpec, base, cur map[string][]*result) (regressed bool) {
	bounds := map[string]specMetric{}
	order := map[string]int{}
	for i, m := range spec.EndToEnd {
		bounds[m.Name] = m
		order[m.Name] = i
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1 q3] n\tnew median [q1 q3] n\tdelta\tverdict")
	for _, wl := range sortedKeys(base) {
		if cur[wl] == nil {
			continue
		}
		names := metricNames(base[wl], cur[wl])
		sort.SliceStable(names, func(i, j int) bool {
			oi, iok := order[names[i]]
			oj, jok := order[names[j]]
			if iok != jok {
				return iok
			}
			return iok && oi < oj
		})
		for _, name := range names {
			bv, unit := values(base[wl], name)
			cv, _ := values(cur[wl], name)
			v := verdictNone
			if b, ok := bounds[name]; ok {
				v = judge(bv, cv, b.Better == "higher", b.Bound)
			} else if name == "error_rate" {
				// Failed ops must not rise at all. BENCHMARK.json cannot
				// bound it: it is zero on every healthy run.
				v = verdictUnchanged
				if slices.Max(cv) > slices.Max(bv) {
					v = verdictWorse
				}
			}
			regressed = regressed || v == verdictWorse
			delta := "-"
			if mb := median(bv); mb != 0 {
				delta = fmt.Sprintf("%+.2f%%", (median(cv)-mb)/math.Abs(mb)*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl, name, unit, summary(bv), summary(cv), delta, v)
		}
	}
	tw.Flush()
	return regressed
}

// metricNames lists, sorted, the metrics every run on both sides has.
func metricNames(a, b []*result) []string {
	count := map[string]int{}
	for _, r := range append(append([]*result(nil), a...), b...) {
		for name := range r.Metrics {
			count[name]++
		}
	}
	var names []string
	for _, name := range sortedKeys(count) {
		if count[name] == len(a)+len(b) {
			names = append(names, name)
		}
	}
	return names
}

func values(rs []*result, name string) ([]float64, string) {
	v := make([]float64, len(rs))
	unit := ""
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
		unit = r.Metrics[name].Unit
	}
	return v, unit
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(v), q1, q3, len(v))
}
