package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// goldenJSON holds the seed-2010 digests of every op of every workload,
// at both sizes. Refresh it with `go test -run TestGolden -update`.
//
//go:embed testdata/golden.json
var goldenJSON []byte

const goldenSeed = 2010

type goldenFile struct {
	Seed int64 `json:"seed"`
	// Digests maps "<workload>/<size>" to each op's SHA-256 digest.
	Digests map[string]map[string]string `json:"digests"`
}

// loadGolden returns the committed digests for this workload and size,
// or nil when the seed has none.
func loadGolden(workload string, sz size, seed int64) (map[string]string, error) {
	if seed != goldenSeed {
		return nil, nil
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	d, ok := g.Digests[workload+"/"+sz.name]
	if !ok {
		return nil, fmt.Errorf("no golden digests for %s/%s; refresh them with go test -run TestGolden -update", workload, sz.name)
	}
	return d, nil
}

// endToEnd names the end-to-end metrics the result line reports for an
// untraced run, in BENCHMARK.json order. pass_ref is a pass's host time
// in chunks of the reference loop run between its laps, and setup_s a
// set-up's, converted to seconds at a fixed chunk time: other tenants of
// a shared host slow the work and the chunks alike, so the ratio keeps
// most of a change to the simulator's speed and loses most of the
// host's.
var endToEnd = []string{"setup_s", "pass_ref", "allocs_per_pass", "alloc_mb_per_pass"}

// perLayer names the per-layer metrics the result line reports for a
// traced run: the probes, and the profile layers every workload spends
// time in. The rest (spans and counts of one workload, layers some
// workload never or barely enters) are printed and saved only.
var perLayer = []string{
	"sim.self_ms", "sched.self_ms", "metering.self_ms", "kernel.self_ms", "programs.self_ms",
	"runtime.alloc_ms", "runtime.gc_cycles", "trace_overhead_pct",
	"sim.queue_ns", "sim.queue_allocs", "sched.o1_ns", "sched.o1_allocs", "sched.cfs_ns", "sched.cfs_allocs",
	"metering.charge_ns", "metering.charge_allocs", "device.drr_ns", "device.drr_allocs",
	"kernel.syscall_ns", "kernel.syscall_faulted_ns", "kernel.syscall_allocs",
	"cluster.round_us", "cluster.rounds",
}

// profileLayers are the layers the CPU profile is attributed to, each
// reported as <layer>.self_ms (CPU ms per pass).
var profileLayers = []string{"sim", "sched", "metering", "kernel", "guest", "mem", "device", "cluster", "experiments", "programs", "bench"}

// setupRuns is how many times a run sets up its workload; setup_s is
// the median.
const setupRuns = 3

type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	traceDir string // empty for an untraced run
	sz       size
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. The saved form (-out) keeps every
// metric, which is what bench compare reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // the first ten
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// check verifies ops against the reference digests: an op fails on an
// error or on a digest that differs from the reference.
func (r *result) check(ops []opResult, ref map[string]string) {
	for _, op := range ops {
		r.Attempted++
		var why string
		switch {
		case op.err != nil:
			why = op.err.Error()
		case op.digest != ref[op.key]:
			why = fmt.Sprintf("digest %.12s differs from reference %.12s", op.digest, ref[op.key])
		default:
			continue
		}
		r.Failed++
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, op.key+": "+why)
		}
	}
}

func digests(ops []opResult) map[string]string {
	d := make(map[string]string, len(ops))
	for _, op := range ops {
		d[op.key] = op.digest
	}
	return d
}

// runBenchmark sets the workload up setupRuns times, checking each
// warm-up pass against the reference digests (the goldens for seed
// 2010, else the first warm-up's), then runs timed passes for the
// configured time. A traced run splits that time between untraced and
// traced passes and then runs the probes.
func runBenchmark(cfg runConfig, stdout io.Writer) (*result, error) {
	w := cfg.workload
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: cfg.traceDir != "", Metrics: map[string]metric{}}
	var pass passFunc
	var ref map[string]string
	rl := newRefLoop()
	var setupRefs, setupHost []float64
	for i := 0; i < setupRuns; i++ {
		lp := laps{ref: rl}
		lp.start()
		golden, err := loadGolden(w.name, cfg.sz, cfg.seed)
		if err != nil {
			return nil, err
		}
		p, setupOps, err := w.prepare(cfg.seed, cfg.sz)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		lp.mark()
		warm := p(nil, &lp)
		setupRefs = append(setupRefs, sum(lp.inRefs))
		setupHost = append(setupHost, lp.work.Seconds())
		if ref == nil {
			ref = golden
			if ref == nil {
				ref = digests(warm)
			}
		}
		res.check(setupOps, ref)
		res.check(warm, ref)
		pass = p
	}
	res.set("setup_s", median(setupRefs)*refChunkNominal.Seconds(), "s")
	res.set("setup_host_s", median(setupHost), "s")

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if res.Traced {
		budget /= 2
	}
	plain, err := timedPasses(pass, nil, rl, budget, res, ref)
	if err != nil {
		return nil, err
	}
	n := float64(len(plain.seconds))
	res.set("pass_ref", plain.inRefs(), "ref")
	res.set("pass_s", median(plain.seconds), "s")
	res.set("cpu_s_per_pass", plain.cpu/n, "s")
	res.set("ref_chunk_ms", median(plain.chunkMs), "ms")
	res.set("allocs_per_pass", float64(plain.mallocs)/n, "count")
	res.set("alloc_mb_per_pass", float64(plain.bytes)/n/1e6, "MB")
	if pct, v, ok := tailPercentile(plain.seconds); ok {
		res.set(fmt.Sprintf("pass_s_p%d", pct), v, "s")
	}
	if res.Traced {
		if err := tracedPasses(cfg, pass, rl, budget, res, ref); err != nil {
			return nil, err
		}
	}
	res.set("peak_live_mb", float64(plain.peakLive)/1e6, "MB")
	res.set("passes", n, "count")
	res.set("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio")
	writeMetrics(stdout, res.Metrics)
	return res, nil
}

// writeMetrics prints one "name value unit" line per metric, sorted by
// name, each value with all its digits.
func writeMetrics(w io.Writer, metrics map[string]metric) {
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(w, "%s %v %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

type passStats struct {
	seconds        []float64   // per pass: host time of its work, reference chunks left out
	lapRefs        [][]float64 // per pass, per lap: the lap's time in reference chunks
	chunkMs        []float64   // per pass: the mean reference chunk time
	cpu            float64     // process CPU seconds over the loop, reference chunks included
	mallocs, bytes uint64
	gcs            uint32
	peakLive       uint64
}

// inRefs is a pass's time in reference chunks: for each lap, the median
// over passes of its time in chunks, summed over the laps. A slow spell
// of the host that the chunks misjudge then skews a few laps of a few
// passes, which the medians drop, not whole passes. Only the laps every
// pass marked count; a pass cut short has failed its check anyway.
func (st passStats) inRefs() float64 {
	laps := len(st.lapRefs[0])
	for _, p := range st.lapRefs {
		laps = min(laps, len(p))
	}
	var total float64
	col := make([]float64, len(st.lapRefs))
	for j := 0; j < laps; j++ {
		for i, p := range st.lapRefs {
			col[i] = p[j]
		}
		total += median(col)
	}
	return total
}

// timedPasses runs passes, verifying each, until the next would end
// past budget (at least one runs). It measures each pass's work time,
// in seconds and in reference chunks, and the CPU time, allocations
// and peak live heap over the whole loop.
func timedPasses(pass passFunc, tr *tracer, rl *refLoop, budget time.Duration, res *result, ref map[string]string) (passStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopWatch := watchLiveHeap()
	var st passStats
	lp := laps{ref: rl}
	var last time.Duration // the previous pass's host time, chunks included
	start, cpu0 := time.Now(), cpuSeconds()
	for len(st.seconds) == 0 || time.Since(start)+last <= budget {
		if tr != nil {
			tr.pass = len(st.seconds)
		}
		root := tr.begin("pass")
		t0 := time.Now()
		lp.start()
		ops := pass(tr, &lp)
		last = time.Since(t0)
		tr.end(root)
		res.check(ops, ref)
		if lp.chunks == 0 {
			stopWatch()
			return st, fmt.Errorf("%s: a pass marked no laps", res.Workload)
		}
		st.seconds = append(st.seconds, lp.work.Seconds())
		st.lapRefs = append(st.lapRefs, lp.inRefs)
		st.chunkMs = append(st.chunkMs, lp.refs.Seconds()*1e3/float64(lp.chunks))
	}
	st.cpu = cpuSeconds() - cpu0
	st.peakLive = stopWatch()
	runtime.ReadMemStats(&after)
	st.mallocs = after.Mallocs - before.Mallocs
	st.bytes = after.TotalAlloc - before.TotalAlloc
	st.gcs = after.NumGC - before.NumGC
	return st, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// getrusage fails only on an invalid who or a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// watchLiveHeap samples, every 2 ms until the returned stop function
// is called, the heap the garbage collector found live at its last
// cycle, and stop returns the largest sample. Collections come tens of
// milliseconds apart or more, so the sampling sees nearly every one.
func watchLiveHeap() (stop func() uint64) {
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-quit:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-peak
	}
}

// tracedPasses runs the traced half of a traced run: passes under the
// CPU profiler with spans recorded, then the probes. It derives the
// per-layer metrics and writes cpu.pprof, spans.jsonl and layers.txt
// into the trace directory.
func tracedPasses(cfg runConfig, pass passFunc, rl *refLoop, budget time.Duration, res *result, ref map[string]string) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(cfg.traceDir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	tr := newTracer()
	st, err := timedPasses(pass, tr, rl, budget, res, ref)
	pprof.StopCPUProfile()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := float64(len(st.seconds))
	res.set("trace_overhead_pct", (st.inRefs()/res.Metrics["pass_ref"].Value-1)*100, "%")
	res.set("runtime.gc_cycles", float64(st.gcs)/n, "count")

	samples, err := readProfile(profPath)
	if err != nil {
		return err
	}
	byLayer := layerTimes(samples)
	for _, l := range profileLayers {
		res.set(l+".self_ms", byLayer[l]/n, "ms")
	}
	for _, l := range []string{layerAlloc, layerGC, layerHandoff} {
		res.set(l+"_ms", byLayer[l]/n, "ms")
	}
	res.set("other.self_ms", byLayer[layerOther]/n, "ms")

	for name, v := range selfTimes(tr.spans) {
		if name != "pass" {
			res.set(name+"_ms", median(v), "ms")
		}
	}
	for name, v := range tr.counts {
		res.set(name, median(v), tr.units[name])
	}

	probed, err := runProbes(cfg.seed, cfg.sz)
	if err != nil {
		return err
	}
	for name, m := range probed {
		res.Metrics[name] = m
	}

	if err := writeSpans(filepath.Join(cfg.traceDir, "spans.jsonl"), tr.spans); err != nil {
		return err
	}
	var table strings.Builder
	writeMetrics(&table, res.Metrics)
	return os.WriteFile(filepath.Join(cfg.traceDir, "layers.txt"), []byte(table.String()), 0o644)
}

// printResultLine writes the run's last line: correctness, op counts,
// and the metrics BENCHMARK.json names for this kind of run.
func printResultLine(w io.Writer, res *result) error {
	names := endToEnd
	if res.Traced {
		names = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metric{}}
	for _, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		line.Metrics[name] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
