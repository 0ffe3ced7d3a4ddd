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
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the artifact goldens under testdata/ from the current tree")

// harvestDigests holds one SHA-256 per run TestClusterGoldens
// digests, as "<hex>  <id>/<run index>" lines in id order.
const harvestDigests = "testdata/harvest.sha256"

// TestClusterGoldens pins every artifact at quick() options: its
// rendered figure (testdata/<id>.golden) and, for the cluster family,
// a digest of each run its plan declares, in declaration order, taken
// over the run's full-precision harvest (harvestDigests), because a
// render rounds bills to 0.1 s. The "run" entry renders nothing: it
// digests Run for every workload under no attack and under each
// attack, which pins the single-machine artifacts' per-scheme seconds,
// victim counters and measurement logs below render precision. All
// entries share one campaign, and every artifact renders twice from
// its results to the same bytes: renders only read the results they
// share.
//
// Provenance: the cluster, multiflood and swapflood renders were
// captured before links carried addressed frames, routing tables and
// RED; the routerflood render before the qdisc layer (DRR,
// byte-accurate wires, EWMA RED, the guest clock); the fairflood and
// chaosflood renders at the commit before the routed star and the
// victim host were each built in one place; the single-machine renders
// while the paper's guests still ran on a goroutine per task. All of
// them still pass byte for byte, and so do the harvest digests since
// the five cluster runners declare their scenarios on one builder,
// fabric, with ElapsedSec read from the cluster's final clock. The
// harvest digests were last rewritten when 23 spec fields that nothing
// set were deleted, which took exactly those fields' lines out of the
// dumps: each at its zero value, or Opts.MaxSteps=400000000.
// Regenerate the goldens only to move that bar on purpose:
//
//	go test ./internal/experiments -run TestClusterGoldens -update
func TestClusterGoldens(t *testing.T) {
	want := map[string]string{}
	if !*update {
		want = readHarvestDigests(t)
	}
	o := quick().norm()
	ids := append(Artifacts(), "run")
	sort.Strings(ids)
	plans := make([]plan, len(ids))
	for k, id := range ids {
		if mk, ok := artifacts[id]; ok {
			plans[k] = mk(o)
			continue
		}
		plans[k] = solo(runTable(o), nil)
	}
	c := newCampaign(plans)
	RunIndexed(c.Runs(), 0, func(i int) { c.Run(i) })

	var lines []string
	for k, id := range ids {
		t.Run(id, func(t *testing.T) {
			if _, single := plans[k].runs[0].spec.(RunSpec); id != "run" {
				checkRender(t, id, c, k)
				if single {
					return
				}
			}
			for j, i := range c.slots[k] {
				out, err := c.outs[i], c.errs[i]
				if err != nil {
					t.Fatalf("run %d: %v", j, err)
				}
				var b strings.Builder
				dumpHarvest(&b, reflect.TypeOf(out).Elem().Name(), reflect.ValueOf(out))
				sum := sha256.Sum256([]byte(b.String()))
				got, name := hex.EncodeToString(sum[:]), fmt.Sprintf("%s/%d", id, j)
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

// runTable is Run's spec for every workload under no attack and under
// each attack, in that order.
func runTable(o Options) []RunSpec {
	var specs []RunSpec
	for _, w := range workloads.Specs() {
		specs = append(specs, RunSpec{Opts: o, Workload: w.Key})
		for _, a := range attacks.All(o.Freq) {
			specs = append(specs, RunSpec{Opts: o, Workload: w.Key, Attack: a})
		}
	}
	return specs
}

// checkRender compares campaign c's render of artifact k with
// testdata/<id>.golden, or rewrites the golden under -update, and
// renders it again from the same results to the same bytes.
func checkRender(t *testing.T, id string, c *Campaign, k int) {
	t.Helper()
	fig, err := c.Render(k)
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
	again, err := c.Render(k)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fig.Render(), again.Render(); a != b {
		t.Errorf("second render from the same results diverged\n--- first ---\n%s--- second ---\n%s", a, b)
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

// dumpHarvest writes v canonically, one "path=value" line per leaf:
// every exported field, floats at round-trip precision, map entries
// in sorted key order. Pointers are followed.
func dumpHarvest(b *strings.Builder, path string, v reflect.Value) {
	leaf := func(s string) { fmt.Fprintf(b, "%s=%s\n", path, s) }
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			leaf("nil")
		} else {
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

// TestClusterGoldenTableIsPinned makes the render goldens under
// testdata/ cover exactly the registered artifacts, so a rename or an
// addition cannot leave a golden unreplayed.
func TestClusterGoldenTableIsPinned(t *testing.T) {
	goldens, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []string
	for _, g := range goldens {
		onDisk = append(onDisk, strings.TrimSuffix(filepath.Base(g), ".golden"))
	}
	sort.Strings(onDisk)
	if ids := Artifacts(); strings.Join(onDisk, ",") != strings.Join(ids, ",") {
		t.Fatalf("testdata has goldens for %v, artifacts are %v", onDisk, ids)
	}
}
