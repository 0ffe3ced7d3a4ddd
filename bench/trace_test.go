package main

import (
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"
)

func TestFuncPackageAndLayer(t *testing.T) {
	cases := []struct {
		fn, pkg, layer string
	}{
		{"repro/internal/kernel.(*Machine).Run", "repro/internal/kernel", "kernel"},
		{"repro/internal/kernel.New.func1", "repro/internal/kernel", "kernel"},
		{"repro/internal/experiments.ForkedCampaign[go.shape.*repro/internal/experiments.ForkLabOut]", "repro/internal/experiments", "experiments"},
		{"repro/internal/experiments.Campaign[go.shape.struct { Opts repro/internal/sim.Options },go.shape.*uint8].func1", "repro/internal/experiments", "experiments"},
		{"repro.ReproduceAllTimed.func1", "repro", "experiments"},
		{"repro/internal/textplot.RenderBars", "repro/internal/textplot", "experiments"},
		{"repro/internal/workloads.whetstone", "repro/internal/workloads", "programs"},
		{"main.(*stepper).step", "main", "bench"},
		{"crypto/sha256.block", "crypto/sha256", ""},
		{"runtime.mapaccess2_fast64", "runtime", ""},
	}
	for _, c := range cases {
		if got := funcPackage(c.fn); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := pkgLayer[funcPackage(c.fn)]; got != c.layer {
			t.Errorf("layer of %q = %q, want %q", c.fn, got, c.layer)
		}
	}

	stacks := []struct {
		name   string
		frames []string
		want   string
	}{
		{"inlined runtime helper under a repo frame", []string{"runtime.mapaccess2_fast64", "repro/internal/metering.(*ledger).entry", "repro/internal/kernel.(*Machine).advance"}, "metering"},
		{"stdlib under a repo frame", []string{"container/heap.down", "container/heap.Pop", "repro/internal/sim.(*EventQueue).Pop"}, "sim"},
		{"allocation", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgcSmallScanNoHeader", "runtime.mallocgc", "runtime.newobject", "repro/internal/kernel.New"}, layerAlloc},
		{"slice growth", []string{"runtime.growslice", "repro/internal/sched.(*prioArray).push"}, layerAlloc},
		{"GC assist inside an allocation", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/kernel.New"}, layerGC},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{"goroutine handoff", []string{"runtime.futex", "runtime.notewakeup", "runtime.chansend1", "repro/internal/kernel.(*Machine).handoffTo"}, layerHandoff},
		{"parked guest", []string{"runtime.gopark", "runtime.chanrecv1", "repro/internal/kernel.(*task).awaitGrant"}, layerHandoff},
		{"no repo frame", []string{"runtime/pprof.profileWriter"}, layerOther},
	}
	for _, s := range stacks {
		if got := layerOf(s.frames); got != s.want {
			t.Errorf("%s: layerOf = %q, want %q", s.name, got, s.want)
		}
	}
}

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 11 {
		t.Fatalf("parsed %d stacks, want 11", len(samples))
	}
	first := samples[0]
	if first.value != 30*time.Millisecond || first.frames[0] != "container/heap.down" || first.frames[2] != "repro/internal/sim.(*EventQueue).Pop" {
		t.Errorf("first stack parsed as %v %q", first.value, first.frames[:3])
	}
	if got := samples[10].value; got != 1010*time.Millisecond {
		t.Errorf("seconds-valued stack parsed as %v, want 1.01s", got)
	}
	want := map[string]float64{
		"sim": 30, "metering": 20, "kernel": 10, "mem": 1010, "experiments": 10, "bench": 10,
		layerAlloc: 10, layerGC: 30, layerHandoff: 10, layerOther: 10,
	}
	if got := layerTimes(samples); !reflect.DeepEqual(got, want) {
		t.Errorf("layerTimes = %v, want %v", got, want)
	}
}

// TestReadProfileFixture runs the offline pprof tool over a committed
// CPU profile of a fork-sweep pass and checks the parse accounts for
// every sample.
func TestReadProfileFixture(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	samples, err := readProfile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, s := range samples {
		total += s.value
	}
	if len(samples) != fixtureStacks || total != fixtureTotal {
		t.Errorf("parsed %d stacks totalling %v, want %d totalling %v", len(samples), total, fixtureStacks, fixtureTotal)
	}
	if layerTimes(samples)["kernel"] == 0 {
		t.Error("no kernel time attributed in a fork-sweep profile")
	}
}

// The committed profile's stack count and total sampled time, as
// `go tool pprof -traces testdata/cpu.pprof` reports them.
const (
	fixtureStacks = 90
	fixtureTotal  = 1080 * time.Millisecond
)
