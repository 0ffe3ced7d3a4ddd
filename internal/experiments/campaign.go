// Campaign execution: every artifact is a plan, the runs it needs
// declared before any of them runs plus a render that builds its
// figure from their results. A campaign gathers the plans of the
// requested artifacts and keeps each distinct run once: a run is a
// pure function of its spec, so single-machine runs declared with
// equal RunSpecs, by one artifact or several, share one execution.
// Every run builds a fresh, fully self-contained machine (or cluster)
// from its own seed, so runs share no state and a worker pool may
// execute them in any order; each render reads its results in
// declaration order, which keeps every rendered artifact
// byte-identical to sequential execution.
package experiments

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
)

// resolveParallelism maps the Options.Parallelism convention (zero =
// all cores) to a concrete worker count for n runs.
func resolveParallelism(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// RunIndexed executes fn(i) for every i in [0, n) across a worker
// pool of the given size (zero = all cores, clamped to n). fn must
// write its result into its own slot of a caller-owned slice; slots
// are disjoint, so no further synchronization is needed. This is the
// one pool implementation behind cpumeter.ReproduceAll.
func RunIndexed(n, parallelism int, fn func(i int)) {
	RunIndexedWorkers(n, parallelism, func(_, i int) { fn(i) })
}

// RunIndexedWorkers is RunIndexed with worker identity: fn(w, i) runs
// spec i on worker w in [0, workers), so callers can give each worker
// private non-thread-safe state (a kernel.Pool of recycled machine
// shells, say) without locking. Worker-to-spec assignment is load-
// driven and NOT deterministic — only per-slot results may depend on
// it, never anything aggregated across slots.
func RunIndexedWorkers(n, parallelism int, fn func(worker, i int)) {
	workers := resolveParallelism(parallelism, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// The pool below is the one sanctioned use of host concurrency
	// outside the engine: every fn(i) is a self-contained seeded run
	// writing a disjoint slot, and aggregation reads slots in index
	// order, so results are byte-identical to sequential execution.
	var wg sync.WaitGroup //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1) //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
		//simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
		go func(w int) {
			defer wg.Done()       //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
			for i := range next { //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
				fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
	}
	close(next) //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
	wg.Wait()   //simlint:gotime-ok campaign pool; runs are independent seeded machines merged in index order
}

// run is one declared machine or cluster run.
type run struct {
	// spec is what exec runs. A RunSpec is also the key under which
	// equal single-machine runs share one execution; cluster specs
	// hold slices and pointers, so their runs are never shared.
	spec any
	exec func(any) (any, error)
	// name describes spec in an error message.
	name func(any) string
}

// plan is one artifact: the runs it needs, in declaration order, and
// the render that builds its figure from their results. A render only
// reads its results, which other plans may share.
type plan struct {
	runs   []run
	render func(outs []any) (*Figure, error)
}

// declare plans exec of every spec, rendered from the typed results.
func declare[S, O any](specs []S, exec func(S) (O, error), name func(S) string, render func([]O) (*Figure, error)) plan {
	r := run{
		exec: func(s any) (any, error) { return exec(s.(S)) },
		name: func(s any) string { return name(s.(S)) },
	}
	p := plan{runs: make([]run, len(specs))}
	for i, s := range specs {
		r.spec = s
		p.runs[i] = r
	}
	p.render = func(outs []any) (*Figure, error) {
		typed := make([]O, len(outs))
		for i, out := range outs {
			typed[i] = out.(O)
		}
		return render(typed)
	}
	return p
}

// solo plans one single-machine run per spec.
func solo(specs []RunSpec, render func([]*RunOut) (*Figure, error)) plan {
	return declare(specs, Run, func(s RunSpec) string { return s.Workload + "/" + key(s.Attack) }, render)
}

// artifacts maps each artifact id to its plan, given normalized
// options.
var artifacts = map[string]func(Options) plan{
	"figure4":     figure4,
	"figure5":     figure5,
	"figure6":     figure6,
	"figure7":     figure7,
	"figure8":     figure8,
	"figure9":     figure9,
	"figure10":    figure10,
	"figure11":    figure11,
	"comparison":  comparison,
	"mitigation":  mitigation,
	"ablation1":   ablationTickRate,
	"ablation2":   ablationScheduler,
	"ablation3":   ablationIRQAccounting,
	"ablation4":   ablationDetector,
	"cluster":     clusterFlood,
	"multiflood":  multiAttackerFlood,
	"swapflood":   crossMachineExceptionFlood,
	"routerflood": routerFlood,
	"fairflood":   fairFlood,
	"chaosflood":  chaosFlood,
}

// Artifacts lists the regenerable artifact ids in sorted order.
func Artifacts() []string { return slices.Sorted(maps.Keys(artifacts)) }

// Campaign holds the distinct runs of a list of artifacts, each kept
// once, and renders the artifacts from their results. Its runs share
// no state, so a pool may execute any number of them at once; every
// render then reads only results.
type Campaign struct {
	plans []plan
	// runs holds each distinct run once, in first-declaration order;
	// first[i] indexes the artifact that declared runs[i] first, and
	// outs[i] and errs[i] hold its result.
	runs  []run
	first []int
	outs  []any
	errs  []error
	// slots[k][j] indexes in runs artifact k's j-th declared run.
	slots [][]int
}

// NewCampaign declares the runs of the artifacts ids, in order,
// keeping each distinct run once. Nothing runs until Run.
func NewCampaign(ids []string, o Options) (*Campaign, error) {
	o = o.norm()
	plans := make([]plan, len(ids))
	for k, id := range ids {
		mk, ok := artifacts[id]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (have %v)", id, Artifacts())
		}
		plans[k] = mk(o)
	}
	return newCampaign(plans), nil
}

func newCampaign(plans []plan) *Campaign {
	c := &Campaign{plans: plans, slots: make([][]int, len(plans))}
	seen := map[RunSpec]int{}
	for k, p := range plans {
		c.slots[k] = make([]int, len(p.runs))
		for j, r := range p.runs {
			i := len(c.runs)
			if spec, ok := r.spec.(RunSpec); ok {
				if prev, dup := seen[spec]; dup {
					i = prev
				} else {
					seen[spec] = i
				}
			}
			if i == len(c.runs) {
				c.runs = append(c.runs, r)
				c.first = append(c.first, k)
			}
			c.slots[k][j] = i
		}
	}
	c.outs = make([]any, len(c.runs))
	c.errs = make([]error, len(c.runs))
	return c
}

// Runs reports how many distinct runs the campaign holds.
func (c *Campaign) Runs() int { return len(c.runs) }

// Run executes distinct run i and returns the index of the artifact
// that declared it first, whose host time it is.
func (c *Campaign) Run(i int) int {
	r := c.runs[i]
	c.outs[i], c.errs[i] = r.exec(r.spec)
	return c.first[i]
}

// Render builds artifact k's figure once all its runs have run. On
// failure it reports the artifact's earliest-declared failing run —
// "run <j> (<spec>): <cause>" — so error output is as deterministic as
// success output.
func (c *Campaign) Render(k int) (*Figure, error) {
	p := c.plans[k]
	outs := make([]any, len(p.runs))
	for j, i := range c.slots[k] {
		if err := c.errs[i]; err != nil {
			return nil, fmt.Errorf("run %d (%s): %w", j, p.runs[j].name(p.runs[j].spec), err)
		}
		outs[j] = c.outs[i]
	}
	return p.render(outs)
}
