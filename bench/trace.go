package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Trace is the
// pass it belongs to; Parent is the enclosing span's ID (-1 at the
// root). Spans are kept in memory and written out when the run ends.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's own calls and exact
// counts harvested from the program. Every method is a no-op on a nil
// tracer, so untraced passes pay one nil check per call site.
type tracer struct {
	epoch  time.Time
	pass   int
	spans  []span
	open   []int // indices into spans of the enclosing spans
	counts map[string][]float64
	units  map[string]string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string][]float64{}, units: map[string]string{}}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.pass, ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// last reports the duration in seconds of the most recently begun span
// with the given name.
func (t *tracer) last(name string) float64 {
	if t == nil {
		return 0
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name {
			return float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return 0
}

// count records one pass's value of a quantity harvested from the
// program.
func (t *tracer) count(name, unit string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] = append(t.counts[name], v)
	t.units[name] = unit
}

// selfTimes returns each span name's self times in milliseconds, one
// per occurrence: a span's duration minus the time its direct children
// cover.
func selfTimes(spans []span) map[string][]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-child[i])/1e6)
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileSample is one stack of a CPU profile as `go tool pprof
// -traces` prints it: the sampled CPU time and the frames, leaf first.
type profileSample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads `go tool pprof -traces` output. Stacks are
// separated by dashed rule lines; a stack's first line carries its
// value before the leaf frame, and each later line one caller frame.
// Inlined frames are marked " (inline)", which is dropped.
func parseTraces(r io.Reader) ([]profileSample, error) {
	var out []profileSample
	var cur *profileSample
	inBody := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			inBody = true
			cur = nil
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if cur == nil {
			// The value column is right-aligned before the leaf frame.
			fields := strings.Fields(frame)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed stack head %q", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: stack value %q: %w", fields[0], err)
			}
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
			out = append(out, profileSample{value: v})
			cur = &out[len(out)-1]
		}
		cur.frames = append(cur.frames, frame)
	}
	return out, sc.Err()
}

// readProfile runs the offline pprof tool over a CPU profile.
func readProfile(path string) ([]profileSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.String())
	}
	return parseTraces(strings.NewReader(string(out)))
}

// Layers a profile sample can be charged to, besides the repository's
// own modules.
const (
	layerAlloc   = "runtime.alloc"
	layerGC      = "runtime.gc"
	layerHandoff = "runtime.handoff"
	layerOther   = "other"
)

// pkgLayer maps the repository's packages to layers. The root package
// is the artifact-campaign facade, and textplot renders the artifacts,
// so both count as experiments; main is this benchmark itself.
var pkgLayer = map[string]string{
	"repro":                      "experiments",
	"repro/internal/experiments": "experiments",
	"repro/internal/textplot":    "experiments",
	"repro/internal/sim":         "sim",
	"repro/internal/sched":       "sched",
	"repro/internal/metering":    "metering",
	"repro/internal/kernel":      "kernel",
	"repro/internal/guest":       "guest",
	"repro/internal/mem":         "mem",
	"repro/internal/device":      "device",
	"repro/internal/cluster":     "cluster",
	"repro/internal/workloads":   "programs",
	"repro/internal/attacks":     "programs",
	"repro/internal/lib":         "programs",
	"repro/internal/shell":       "programs",
	"repro/internal/proc":        "programs",
	"repro/internal/cpu":         "programs",
	"repro/internal/core":        "programs",
	"repro/internal/integrity":   "programs",
	"main":                       "bench",
}

// funcPackage returns the import path of a symbolised function name,
// for closures ("pkg.F.func1"), methods ("pkg.(*T).M") and generic
// instantiations ("pkg.F[go.shape.*other/pkg.T]") alike.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Runtime frames that decide a sample's layer ahead of the repository
// frame that called them. Matched as prefixes, so runtime.mallocgc
// covers its size-class specialisations and runtime.gc the mark
// workers, assists, drains and write barriers.
var (
	gcFrames      = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.greyobject", "runtime.wbBufFlush"}
	allocFrames   = []string{"runtime.mallocgc", "runtime.newobject", "runtime.growslice"}
	handoffFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.futex", "runtime.goready", "runtime.ready", "runtime.wakep", "runtime.notewakeup", "runtime.notesleep", "runtime.stopm", "runtime.startm", "runtime.mcall"}
)

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf charges a stack (leaf first) to a layer: walking from the
// leaf, a garbage-collection, allocation or goroutine-handoff frame
// claims the sample; otherwise the innermost repository frame does.
// Other runtime and standard-library frames under a repository frame
// (map lookups, heap sifts, hashing) are charged to that frame's layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		switch {
		case hasPrefix(f, gcFrames):
			return layerGC
		case hasPrefix(f, allocFrames):
			return layerAlloc
		case hasPrefix(f, handoffFrames):
			return layerHandoff
		}
		if l, ok := pkgLayer[funcPackage(f)]; ok {
			return l
		}
	}
	return layerOther
}

// layerTimes sums sampled CPU time per layer, in milliseconds.
func layerTimes(samples []profileSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.frames)] += float64(s.value) / float64(time.Millisecond)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
