// Campaign execution: figure, table, and ablation runners declare
// their full run matrix up front as a []RunSpec, and a worker pool
// executes the independent machines concurrently. Each RunSpec builds
// a fresh, fully self-contained machine from its own seed, so runs
// share no state and the pool can schedule them in any order; results
// are returned in declaration order, which keeps every aggregation —
// and therefore every rendered artifact — byte-identical to
// sequential execution.
package experiments

import (
	"fmt"
	"runtime"
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
// one pool implementation behind Campaign and cpumeter.ReproduceAll.
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

// Campaign is the one fan-out runner behind every figure's run
// matrix: it executes run(spec) for every spec on the worker pool
// (parallelism zero = all cores) and returns the results in
// declaration order. On failure it reports the error of the
// earliest-declared failing spec — "<kind> run <i> (<desc(spec)>):
// <cause>" — so error output is as deterministic as success output.
// kind names the campaign family in that message; desc renders one
// spec for it.
func Campaign[Spec, Out any](kind string, specs []Spec, parallelism int,
	run func(Spec) (Out, error), desc func(Spec) string) ([]Out, error) {
	outs := make([]Out, len(specs))
	errs := make([]error, len(specs))
	RunIndexed(len(specs), parallelism, func(i int) {
		outs[i], errs[i] = run(specs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s run %d (%s): %w", kind, i, desc(specs[i]), err)
		}
	}
	return outs, nil
}

// Matrix accumulates a campaign's run declarations. Runners Add every
// spec first, Run the whole matrix once, and read results back by the
// handle Add returned — separating the declaration of work from its
// (possibly concurrent) execution.
type Matrix struct {
	specs []RunSpec
}

// Add declares one run and returns its handle into Run's result
// slice.
func (mx *Matrix) Add(s RunSpec) int {
	mx.specs = append(mx.specs, s)
	return len(mx.specs) - 1
}

// Len reports the number of declared runs.
func (mx *Matrix) Len() int { return len(mx.specs) }

// Run executes the declared matrix with the given parallelism, each
// spec on its own fresh machine.
func (mx *Matrix) Run(parallelism int) ([]*RunOut, error) {
	return Campaign("campaign", mx.specs, parallelism, Run, func(s RunSpec) string {
		return fmt.Sprintf("%s/%s", s.Workload, key(s.Attack))
	})
}
