package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"

	cpumeter "repro"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/kernel"
)

// opResult is one verified operation: an artifact render, a fork-lab
// variant, or a storm run. key names the reference digest it must
// reproduce; err marks a failed op (an error, or a ledger violation).
type opResult struct {
	key    string
	digest string
	err    error
}

// passFunc runs one pass of a prepared workload. A nil tracer runs it
// untraced; spans and counts are recorded only through a live one. The
// pass marks a lap after each unit of its work.
type passFunc func(tr *tracer, lp *laps) []opResult

// workload is one fixed input set. prepare does the set-up a run pays
// once — input generation from the seed, fresh-run sizing, fresh-build
// checks — and returns the pass plus any ops the set-up verified.
type workload struct {
	name    string
	prepare func(seed int64, sz size) (passFunc, []opResult, error)
}

// size scales a workload's per-pass work. fullSize is what the
// benchmark measures. tinySize keeps the smoke test fast: it runs two
// cheap artifacts per artifact workload, among them a goroutine-driven
// attack (figure7) and chaosflood, for its ledger check.
type size struct {
	name          string
	paper, fabric []string // artifact ids of the two artifact workloads
	scale         float64  // artifact Options.Scale
	forkRounds    int      // ForkLabSpec.Rounds
	stormGuests   int
	stormActs     int // Compute/Sleep activations per storm guest
	probeOps      int // operations per probe sample
	clusterFrames int // frames per cluster-probe sample
}

var (
	fullSize = size{
		name: "full",
		paper: []string{
			"figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10", "figure11",
			"comparison", "mitigation", "ablation1", "ablation2", "ablation3", "ablation4",
		},
		fabric:     []string{"cluster", "multiflood", "swapflood", "routerflood", "fairflood", "chaosflood"},
		scale:      0.005,
		forkRounds: 6000, stormGuests: 64, stormActs: 40_000, probeOps: 50_000, clusterFrames: 400,
	}
	tinySize = size{
		name:       "tiny",
		paper:      []string{"figure7", "ablation3"},
		fabric:     []string{"fairflood", "chaosflood"},
		scale:      0.002,
		forkRounds: 200, stormGuests: 8, stormActs: 2_000, probeOps: 1_000, clusterFrames: 20,
	}
)

// The workloads stress different layers, so an optimisation of one
// layer has a workload that exercises it and one that bypasses it:
//
//   - paper-artifacts is the paper's own reproduction: goroutine-driven
//     guests, syscalls and ptrace, paging, and all three meters, with
//     no links, barrier, or snapshot;
//   - fabric-floods is the cluster family: the lockstep barrier, links
//     with RED and DRR, NIC floods and the syscall fault check;
//   - fork-sweep is dominated by checkpoint, restore and pool reuse;
//   - wake-storm stresses scheduler enqueue/pick and the event queue
//     hardest per host second, with no paging, network or goroutine
//     driver.
var workloads = []workload{
	{
		name: "paper-artifacts",
		prepare: func(seed int64, sz size) (passFunc, []opResult, error) {
			return artifactPass(sz.paper, seed, sz.scale), nil, nil
		},
	},
	{
		name: "fabric-floods",
		prepare: func(seed int64, sz size) (passFunc, []opResult, error) {
			return artifactPass(sz.fabric, seed, sz.scale), nil, nil
		},
	},
	{name: "fork-sweep", prepare: prepareForkSweep},
	{name: "wake-storm", prepare: prepareWakeStorm},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func digestOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// artifactPass regenerates each artifact through the public campaign
// entry point, one call per artifact so every artifact is its own op,
// its own span and its own lap.
func artifactPass(ids []string, seed int64, scale float64) passFunc {
	o := cpumeter.Options{Seed: seed, Scale: scale, Parallelism: 1}
	return func(tr *tracer, lp *laps) []opResult {
		ops := make([]opResult, len(ids))
		for i, id := range ids {
			ops[i] = reproduce(tr, id, o)
			lp.mark()
		}
		return ops
	}
}

// reproduce regenerates and renders one artifact. A render carrying a
// LEDGER VIOLATION fails the op.
func reproduce(tr *tracer, id string, o cpumeter.Options) opResult {
	sp := tr.begin("experiments." + id)
	runs, err := cpumeter.ReproduceAllTimed([]string{id}, o)
	tr.end(sp)
	if err != nil {
		return opResult{key: id, err: err}
	}
	text := runs[0].Figure.Render()
	if strings.Contains(text, "LEDGER VIOLATION") {
		return opResult{key: id, err: fmt.Errorf("%s rendered a LEDGER VIOLATION", id)}
	}
	return opResult{key: id, digest: digestOf(text)}
}

const forkVariants = 8

// prepareForkSweep draws the sweep's flood rates, sizes the warmup
// barrier at 90% of a fresh run, checks one variant built from scratch,
// and runs the sweep once through MeterForkLabCampaign. Passes drive
// the same sweep step by step, so each step is its own lap; their
// digests are checked against the same reference as the fresh build's
// and the campaign's.
func prepareForkSweep(seed int64, sz size) (passFunc, []opResult, error) {
	rng := rand.New(rand.NewSource(seed))
	rates := make([]uint64, forkVariants)
	for i := range rates {
		// Log-uniform over [10k, 160k] pps, stratified one draw per
		// eighth of the log range, so a pass's work varies little from
		// seed to seed.
		u := (float64(i) + rng.Float64()) / forkVariants
		rates[i] = uint64(10_000 * math.Pow(16, u))
	}
	spec := cpumeter.ForkLabSpec{Seed: seed, Rounds: sz.forkRounds}

	m, err := cpumeter.BuildForkLab(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Run(); err != nil {
		return nil, nil, fmt.Errorf("fork-sweep: sizing run: %w", err)
	}
	barrier := m.Clock().Now() * 9 / 10

	fresh := opResult{key: variantKey(0)}
	if fm, err := cpumeter.BuildForkLab(spec); err != nil {
		fresh.err = err
	} else if _, err := fm.RunUntil(barrier); err != nil {
		fresh.err = err
	} else {
		fm.NIC().StartFlood(rates[0])
		if err := fm.Run(); err != nil {
			fresh.err = err
		} else {
			fresh.digest = digestOf(cpumeter.HarvestForkLab(fm).Digest)
		}
	}

	outs, err := cpumeter.MeterForkLabCampaign(spec, barrier, rates, 1)
	setupOps := append([]opResult{fresh}, forkOps(outs, err)...)

	pass := func(tr *tracer, lp *laps) []opResult {
		return forkSweep(tr, lp, spec, barrier, rates)
	}
	return pass, setupOps, nil
}

func variantKey(i int) string { return fmt.Sprintf("variant%d", i) }

func forkOps(outs []*cpumeter.ForkLabOut, err error) []opResult {
	ops := make([]opResult, forkVariants)
	for i := range ops {
		ops[i].key = variantKey(i)
		if err != nil {
			ops[i].err = err
			continue
		}
		ops[i].digest = digestOf(outs[i].Digest)
	}
	return ops
}

// forkSweep drives the sweep MeterForkLabCampaign runs, step by step
// through the public checkpoint API, so each step gets a span and the
// warmup, the snapshot and each variant a lap. Its digests must equal
// the campaign's.
func forkSweep(tr *tracer, lp *laps, spec cpumeter.ForkLabSpec, barrier cpumeter.Cycles, rates []uint64) []opResult {
	sp := tr.begin("kernel.build")
	m, err := cpumeter.BuildForkLab(spec)
	tr.end(sp)
	if err != nil {
		return forkOps(nil, err)
	}
	sp = tr.begin("kernel.warmup")
	done, err := m.RunUntil(barrier)
	tr.end(sp)
	lp.mark()
	if err == nil && done {
		err = fmt.Errorf("fork-sweep: warmup finished before the barrier")
	}
	if err != nil {
		m.Shutdown()
		return forkOps(nil, err)
	}
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin("kernel.snapshot")
	img, err := cpumeter.SnapshotMachine(m)
	tr.end(sp)
	if tr != nil {
		runtime.ReadMemStats(&after)
	}
	m.Shutdown()
	lp.mark()
	if err != nil {
		return forkOps(nil, err)
	}
	tr.count("kernel.image_kb", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024)

	freq := float64(cpumeter.DefaultCPUHz)
	vsec := float64(barrier) / freq
	host := tr.last("kernel.warmup")
	pool := new(cpumeter.MachinePool)
	outs := make([]*cpumeter.ForkLabOut, len(rates))
	for i, pps := range rates {
		sp = tr.begin("kernel.restore")
		vm, err := pool.Get(img)
		tr.end(sp)
		if err != nil {
			return forkOps(nil, err)
		}
		sp = tr.begin("kernel.tail")
		vm.NIC().StartFlood(pps)
		err = vm.Run()
		tr.end(sp)
		if err != nil {
			return forkOps(nil, err)
		}
		host += tr.last("kernel.tail")
		vsec += float64(vm.Clock().Now()-barrier) / freq
		sp = tr.begin("experiments.harvest")
		outs[i] = cpumeter.HarvestForkLab(vm)
		tr.end(sp)
		pool.Put(vm)
		lp.mark()
	}
	tr.count("kernel.vsec_per_s", "vsec/s", vsec/host)
	return forkOps(outs, nil)
}

// stormGuest is one wake-storm guest's seed-drawn parameters.
type stormGuest struct {
	nice         int
	burst, sleep cpumeter.Cycles
}

// stepper alternates Compute and Sleep requests until its activations
// run out. Its continuation is bound once, so an activation allocates
// nothing of its own.
type stepper struct {
	left         int
	burst, sleep cpumeter.Cycles
	self         guest.Step
}

func (g *stepper) step(ctx guest.Context, _ guest.Resume) guest.Step {
	if g.left == 0 {
		return nil
	}
	g.left--
	if g.left%2 == 1 {
		ctx.Compute(g.burst)
	} else {
		ctx.Sleep(g.sleep)
	}
	return g.self
}

// stratified draws n integers in [lo, hi], one uniformly from each
// n-th of the range, in an order shuffled by rng: every seed gives a
// different assignment with nearly the same sum.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = lo + int(float64(hi-lo+1)*(float64(i)+rng.Float64())/float64(n))
	}
	rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// stormSlices is how many equal slices of virtual time a storm pass is
// driven in, each its own lap.
const stormSlices = 16

// prepareWakeStorm draws each guest's nice value in [-10, 10], compute
// burst in [20k, 80k] cycles and sleep in [20k, 220k] cycles,
// stratified so a storm's total work barely depends on the seed. A
// sizing storm run straight through gives the virtual end time the
// passes' slices are cut from, and its digest must match theirs.
func prepareWakeStorm(seed int64, sz size) (passFunc, []opResult, error) {
	rng := rand.New(rand.NewSource(seed))
	n := sz.stormGuests
	nices, bursts, sleeps := stratified(rng, n, -10, 10), stratified(rng, n, 20_000, 80_000), stratified(rng, n, 20_000, 220_000)
	guests := make([]stormGuest, n)
	for i := range guests {
		guests[i] = stormGuest{nice: nices[i], burst: cpumeter.Cycles(bursts[i]), sleep: cpumeter.Cycles(sleeps[i])}
	}
	sizing, end := runStorm(seed, guests, sz.stormActs, nil, nil, nil)
	if sizing.err != nil {
		return nil, nil, fmt.Errorf("wake-storm: sizing run: %w", sizing.err)
	}
	cuts := make([]cpumeter.Cycles, stormSlices-1)
	for i := range cuts {
		cuts[i] = end * cpumeter.Cycles(i+1) / stormSlices
	}
	pass := func(tr *tracer, lp *laps) []opResult {
		op, _ := runStorm(seed, guests, sz.stormActs, cuts, tr, lp)
		return []opResult{op}
	}
	return pass, []opResult{sizing}, nil
}

// runStorm spawns the storm's guests on a fresh machine and runs it,
// pausing at each cut, then digests the final clock and every task's
// Stats and usage. It returns the op and the final virtual time.
func runStorm(seed int64, guests []stormGuest, acts int, cuts []cpumeter.Cycles, tr *tracer, lp *laps) (opResult, cpumeter.Cycles) {
	sp := tr.begin("kernel.spawn")
	m := cpumeter.NewMachine(cpumeter.MachineConfig{Seed: seed, CPUHz: 1_000_000_000})
	pids := make([]cpumeter.PID, len(guests))
	for i, g := range guests {
		st := &stepper{left: acts, burst: g.burst, sleep: g.sleep}
		st.self = st.step
		p, err := m.Spawn(kernel.SpawnConfig{
			Name: fmt.Sprintf("storm%d", i), Content: "wake-storm stepper v1", Nice: g.nice, Step: st.self,
		})
		if err != nil {
			tr.end(sp)
			m.Shutdown()
			return opResult{key: "storm", err: err}, 0
		}
		pids[i] = p.PID
	}
	tr.end(sp)
	lp.mark()
	sp = tr.begin("kernel.run")
	var done bool
	var err error
	for _, c := range cuts {
		if done, err = m.RunUntil(c); err != nil || done {
			break
		}
		lp.mark()
	}
	if err == nil && !done {
		err = m.Run()
	}
	tr.end(sp)
	if err != nil {
		return opResult{key: "storm", err: err}, 0
	}

	var b strings.Builder
	var switches, preempts, ticks uint64
	fmt.Fprintf(&b, "clock=%d\n", m.Clock().Now())
	for _, pid := range pids {
		st := m.Stats(pid)
		switches += st.ContextSwitches
		preempts += st.Preemptions
		ticks += st.TicksAbsorbed
		fmt.Fprintf(&b, "pid=%d stats=%+v\n", pid, st)
		for _, scheme := range experiments.Schemes {
			u, ok := m.UsageBy(scheme, pid)
			fmt.Fprintf(&b, "pid=%d %s ok=%v usage=%+v\n", pid, scheme, ok, u)
		}
	}
	lp.mark()
	if tr != nil {
		tr.count("kernel.vsec_per_s", "vsec/s", m.Clock().Seconds(m.Clock().Now())/tr.last("kernel.run"))
		tr.count("kernel.ctx_switches", "count", float64(switches))
		tr.count("kernel.preemptions", "count", float64(preempts))
		tr.count("kernel.ticks", "count", float64(ticks))
	}
	return opResult{key: "storm", digest: digestOf(b.String())}, m.Clock().Now()
}
