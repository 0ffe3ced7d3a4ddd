package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the artifact goldens under testdata/ from the current tree")

// harvestDigests holds one SHA-256 per spec the table runs, as
// "<hex>  <id>/<spec index>" lines in table order.
const harvestDigests = "testdata/harvest.sha256"

// clusterGoldens pins every registered artifact at quick() options:
// its rendered figure (testdata/<id>.golden) and, for the cluster
// family, a digest of each spec its figure runs, taken over the
// spec's full-precision harvest (harvestDigests), because a render
// rounds bills to 0.1 s. The "run" entry renders nothing: it digests
// Run for every workload under no attack and under each attack, which
// pins the single-machine artifacts' per-scheme seconds, victim
// counters and measurement logs below render precision. The table is
// sorted by id; TestClusterGoldenTableIsPinned keeps it so. Each
// harvest function declares the specs its figure declares, in the
// figure's order.
//
// Provenance: the cluster, multiflood and swapflood renders were
// captured before links carried addressed frames, routing tables and
// RED; the routerflood render before the qdisc layer (DRR,
// byte-accurate wires, EWMA RED, the guest clock); the fairflood and
// chaosflood renders at the commit before the routed star and the
// victim host were each built in one place; the single-machine renders
// while the paper's guests still ran on a goroutine per task. All of
// them still pass byte for byte. The harvest digests were last
// rewritten when Options lost its driver-selection field, which took
// exactly that field's line out of each dump's Opts.
// Regenerate the goldens only to move that bar on purpose:
//
//	go test ./internal/experiments -run TestClusterGoldens -update
var clusterGoldens = []struct {
	id      string
	render  func(Options) (*Figure, error)
	harvest func(t *testing.T, o Options) []any
}{
	{"ablation1", AblationTickRate, nil},
	{"ablation2", AblationScheduler, nil},
	{"ablation3", AblationIRQAccounting, nil},
	{"ablation4", AblationDetector, nil},
	{"chaosflood", ChaosFlood, func(t *testing.T, o Options) []any {
		base := chaosFloodBase(o)
		floodSec := chaosFloodSec(t)
		flap := &cluster.FlapSpec{
			FirstDownUs: uint64(floodSec * 0.2 * 1e6),
			DownUs:      uint64(floodSec * 0.05 * 1e6),
			UpUs:        uint64(floodSec * 0.2 * 1e6),
		}
		var specs []ChaosFloodSpec
		for _, cs := range []ChaosSpec{
			{},
			{FaultPPM: 20_000},
			{RouterCrashSec: floodSec * 0.45},
			{FaultPPM: 20_000, RouterCrashSec: floodSec * 0.3, RouterRestartSec: floodSec * 0.15, VictimFlap: flap},
		} {
			specs = append(specs, ChaosFloodSpec{Flood: base, Chaos: cs})
		}
		return runEach(t, specs, RunChaosFlood)
	}},
	{"cluster", ClusterFlood, func(t *testing.T, o Options) []any {
		var specs []ClusterRunSpec
		for _, pps := range []uint64{0, 10_000, 40_000} {
			specs = append(specs, ClusterRunSpec{Opts: o, FloodPPS: pps, Victims: []ClusterVictim{
				{Workload: "O", Billing: "jiffy"},
				{Workload: "O", Billing: "process-aware"},
			}})
		}
		return runEach(t, specs, RunCluster)
	}},
	{"comparison", ComparisonTable, nil},
	{"fairflood", FairFlood, func(t *testing.T, o Options) []any {
		specs := []FairFloodSpec{
			{Qdisc: cluster.QdiscFIFO, AttackerPPS: 0},
			{Qdisc: cluster.QdiscFIFO, AttackerPPS: fairFloodAttackerPPS},
			{Qdisc: cluster.QdiscDRR, AttackerPPS: fairFloodAttackerPPS, RED: fairFloodRED()},
		}
		for i := range specs {
			specs[i].Opts = o
			specs[i].Victim = ClusterVictim{Workload: "O", Billing: "jiffy"}
			specs[i].FlowFrames = fairFloodFlowFrames
			specs[i].EgressPPS = fairFloodEgressPPS
		}
		return runEach(t, specs, RunFairFlood)
	}},
	{"figure10", Figure10, nil},
	{"figure11", Figure11, nil},
	{"figure4", Figure4, nil},
	{"figure5", Figure5, nil},
	{"figure6", Figure6, nil},
	{"figure7", Figure7, nil},
	{"figure8", Figure8, nil},
	{"figure9", Figure9, nil},
	{"mitigation", TrustedMitigation, nil},
	{"multiflood", MultiAttackerFlood, func(t *testing.T, o Options) []any {
		var specs []MultiFloodSpec
		for _, billing := range []string{"jiffy", "process-aware"} {
			for _, n := range []int{1, 2, 4} {
				specs = append(specs, MultiFloodSpec{
					Opts:           o,
					Attackers:      n,
					PerAttackerPPS: multiFloodPerAttackerPPS,
					Victim:         ClusterVictim{Workload: "O", Billing: billing},
					BottleneckPPS:  multiFloodBottleneckPPS,
				})
			}
		}
		return runEach(t, specs, RunMultiFlood)
	}},
	{"routerflood", RouterFlood, func(t *testing.T, o Options) []any {
		var specs []RouterFloodSpec
		for _, pps := range []uint64{0, 10_000, 20_000} {
			specs = append(specs, RouterFloodSpec{
				Opts:           o,
				Attackers:      routerFloodAttackers,
				PerAttackerPPS: pps,
				Victim:         ClusterVictim{Workload: "O", Billing: "jiffy"},
				EgressPPS:      routerFloodEgressPPS,
				RED:            routerFloodRED(),
				FlowFrames:     routerFloodFlowFrames,
			})
		}
		return runEach(t, specs, RunRouterFlood)
	}},
	{"run", nil, func(t *testing.T, o Options) []any {
		var specs []RunSpec
		for _, w := range workloads.Specs() {
			specs = append(specs, RunSpec{Opts: o, Workload: w.Key})
			for _, a := range attacks.All(o.Freq) {
				specs = append(specs, RunSpec{Opts: o, Workload: w.Key, Attack: a})
			}
		}
		return runEach(t, specs, Run)
	}},
	{"swapflood", CrossMachineExceptionFlood, func(t *testing.T, o Options) []any {
		var specs []SwapFloodSpec
		for _, billing := range []string{"jiffy", "process-aware"} {
			for _, hog := range []bool{false, true} {
				specs = append(specs, SwapFloodSpec{Opts: o, Victim: ClusterVictim{Workload: "O", Billing: billing}, Hog: hog})
			}
		}
		return runEach(t, specs, RunSwapFlood)
	}},
}

func runEach[S, O any](t *testing.T, specs []S, run func(S) (O, error)) []any {
	t.Helper()
	outs := make([]any, len(specs))
	for i, s := range specs {
		out, err := run(s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		outs[i] = out
	}
	return outs
}

// TestClusterGoldens replays every artifact against its render golden
// and every spec the table runs against its harvest digest.
func TestClusterGoldens(t *testing.T) {
	want := map[string]string{}
	if !*update {
		want = readHarvestDigests(t)
	}
	o := quick().norm()
	var lines []string
	for _, g := range clusterGoldens {
		t.Run(g.id, func(t *testing.T) {
			if g.render != nil {
				checkRender(t, g.id, g.render, o)
			}
			if g.harvest == nil {
				return
			}
			for i, out := range g.harvest(t, o) {
				var b strings.Builder
				dumpHarvest(&b, reflect.TypeOf(out).Elem().Name(), reflect.ValueOf(out))
				sum := sha256.Sum256([]byte(b.String()))
				got, name := hex.EncodeToString(sum[:]), fmt.Sprintf("%s/%d", g.id, i)
				lines = append(lines, got+"  "+name+"\n")
				if !*update && got != want[name] {
					t.Errorf("harvest %s digest %s, want %q; dump:\n%s", name, got, want[name], b.String())
				}
				delete(want, name)
			}
		})
	}
	switch {
	case t.Failed(): // a partial digest list is never written
	case *update:
		if err := os.WriteFile(harvestDigests, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	case len(want) > 0:
		t.Errorf("%s has digests for specs no figure runs: %v", harvestDigests, want)
	}
}

// checkRender compares the artifact's render with testdata/<id>.golden,
// or rewrites the golden under -update.
func checkRender(t *testing.T, id string, render func(Options) (*Figure, error), o Options) {
	t.Helper()
	fig, err := render(o)
	if err != nil {
		t.Fatal(err)
	}
	file := "testdata/" + id + ".golden"
	if *update {
		if err := os.WriteFile(file, []byte(fig.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if golden, err := os.ReadFile(file); err != nil {
		t.Fatal(err)
	} else if got := fig.Render(); got != string(golden) {
		t.Errorf("render diverged from %s\n--- got ---\n%s--- want ---\n%s", file, got, golden)
	}
}

// readHarvestDigests parses harvestDigests into spec name → digest.
func readHarvestDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(harvestDigests)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", harvestDigests, line)
		}
		if _, dup := digests[f[1]]; dup {
			t.Fatalf("%s: duplicate entry for %s", harvestDigests, f[1])
		}
		digests[f[1]] = f[0]
	}
	return digests
}

var machineType = reflect.TypeOf((*kernel.Machine)(nil))

// dumpHarvest writes v canonically, one "path=value" line per leaf:
// every exported field, floats at round-trip precision, map entries
// in sorted key order. Pointers are followed, except *kernel.Machine
// handles, whose state the other fields already report.
func dumpHarvest(b *strings.Builder, path string, v reflect.Value) {
	leaf := func(s string) { fmt.Fprintf(b, "%s=%s\n", path, s) }
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		switch {
		case v.Type() == machineType:
		case v.IsNil():
			leaf("nil")
		default:
			dumpHarvest(b, path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				dumpHarvest(b, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		leaf("len " + strconv.Itoa(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dumpHarvest(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		leaf("len " + strconv.Itoa(v.Len()))
		for _, k := range keys {
			dumpHarvest(b, fmt.Sprintf("%s[%q]", path, k.String()), v.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		leaf(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		leaf(strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		leaf(strconv.FormatBool(v.Bool()))
	case reflect.String:
		leaf(strconv.Quote(v.String()))
	default:
		panic(fmt.Sprintf("dumpHarvest: %s has unsupported kind %s", path, v.Kind()))
	}
}

// TestClusterGoldenTableIsPinned keeps clusterGoldens sorted and
// duplicate-free and makes its render entries cover exactly the
// render goldens under testdata/, so a rename or an addition cannot
// leave a golden unreplayed or make -update write files in a
// churning order.
func TestClusterGoldenTableIsPinned(t *testing.T) {
	ids := make([]string, len(clusterGoldens))
	var rendered []string
	for i, g := range clusterGoldens {
		ids[i] = g.id
		if g.render != nil {
			rendered = append(rendered, g.id)
		}
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("clusterGoldens ids %v are not sorted", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Errorf("clusterGoldens has duplicate id %q", ids[i])
		}
	}
	goldens, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []string
	for _, g := range goldens {
		onDisk = append(onDisk, strings.TrimSuffix(filepath.Base(g), ".golden"))
	}
	sort.Strings(onDisk)
	if strings.Join(onDisk, ",") != strings.Join(rendered, ",") {
		t.Fatalf("testdata has goldens for %v, table renders %v", onDisk, rendered)
	}
}
