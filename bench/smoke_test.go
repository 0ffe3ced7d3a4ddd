package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

// TestGolden checks that seed 2010 reproduces the committed digest of
// every op of every workload — at full size too unless -short — and
// that the fork sweep's fresh-build check agrees with its campaign.
// With -update it rewrites the goldens instead.
func TestGolden(t *testing.T) {
	sizes := []size{tinySize, fullSize}
	if testing.Short() && !*update {
		sizes = sizes[:1]
	}
	g := goldenFile{Seed: goldenSeed, Digests: map[string]map[string]string{}}
	for _, w := range workloads {
		for _, sz := range sizes {
			pass, setupOps, err := w.prepare(goldenSeed, sz)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, sz.name, err)
			}
			ops := pass(nil, nil)
			got := digests(ops)
			for _, op := range append(setupOps, ops...) {
				if op.err != nil {
					t.Fatalf("%s/%s %s: %v", w.name, sz.name, op.key, op.err)
				}
				if op.digest != got[op.key] {
					t.Errorf("%s/%s: set-up op %s disagrees with the pass", w.name, sz.name, op.key)
				}
			}
			if *update {
				g.Digests[w.name+"/"+sz.name] = got
				continue
			}
			want, err := loadGolden(w.name, sz, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: digests differ from testdata/golden.json\n got %v\nwant %v", w.name, sz.name, got, want)
			}
		}
	}
	if *update {
		if err := writeJSON("testdata/golden.json", g); err != nil {
			t.Fatal(err)
		}
	}
}

// printedMetrics parses a run's "name value unit" lines.
func printedMetrics(t *testing.T, out string) (map[string]metric, string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	got := map[string]metric{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		got[f[0]] = metric{v, f[2]}
	}
	return got, lines[len(lines)-1]
}

func specNames(ms []specMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

// TestSmoke runs every workload at the tiny size — one traced run per
// workload, which also measures the end-to-end metrics in its
// untraced half — and checks that every metric BENCHMARK.json names is
// printed with its unit, that the result lines carry exactly those
// metrics, and that no op failed.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := specNames(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end %v, result line reports %v", got, endToEnd)
	}
	if got := specNames(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Fatalf("BENCHMARK.json per_layer %v, result line reports %v", got, perLayer)
	}
	for _, w := range workloads {
		dir := t.TempDir()
		var out strings.Builder
		res, err := runBenchmark(runConfig{workload: w, seed: goldenSeed, sz: tinySize, traceDir: dir}, &out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := printResultLine(&out, res); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		printed, last := printedMetrics(t, out.String())
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
		if r := printed["error_rate"]; r.Value != 0 || res.Failed != 0 {
			t.Errorf("%s: error_rate %v, failures %v", w.name, r.Value, res.Failures)
		}

		var line struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			t.Fatalf("%s: result line %q: %v", w.name, last, err)
		}
		if !line.Correct || line.Attempted == 0 || !reflect.DeepEqual(sortedKeys(line.Metrics), sortedKeys(sliceSet(perLayer))) {
			t.Errorf("%s: traced result line %s", w.name, last)
		}
		res.Traced = false
		var plain strings.Builder
		if err := printResultLine(&plain, res); err != nil {
			t.Fatal(err)
		}
		line.Metrics = nil
		if err := json.Unmarshal([]byte(plain.String()), &line); err != nil || !reflect.DeepEqual(sortedKeys(line.Metrics), sortedKeys(sliceSet(endToEnd))) {
			t.Errorf("%s: untraced result line %s (%v)", w.name, plain.String(), err)
		}
		for _, f := range []string{"spans.jsonl", "layers.txt", "cpu.pprof"} {
			if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: trace file %s missing or empty (%v)", w.name, f, err)
			}
		}
	}
}

func sliceSet(names []string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// TestSmokeDetectsTamperedGolden corrupts one committed digest and
// checks the run reports the mismatch as failed ops.
func TestSmokeDetectsTamperedGolden(t *testing.T) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	key := "fork-sweep/" + tinySize.name
	g.Digests[key][variantKey(3)] = strings.Repeat("0", 64)
	tampered, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	saved := goldenJSON
	goldenJSON = tampered
	defer func() { goldenJSON = saved }()

	w, _ := lookupWorkload("fork-sweep")
	var out strings.Builder
	res, err := runBenchmark(runConfig{workload: w, seed: goldenSeed, sz: tinySize}, &out)
	if err != nil {
		t.Fatal(err)
	}
	printed, _ := printedMetrics(t, out.String()+"{}")
	if res.Failed == 0 || printed["error_rate"].Value <= 0 {
		t.Errorf("tampered golden went unnoticed: failed %d, error_rate %v", res.Failed, printed["error_rate"].Value)
	}
}
