// Command bench is the repository's host-time benchmark. It runs one of
// four fixed workloads through the simulator's public entry points,
// verifies every output, and prints the end-to-end metrics; a traced
// run adds per-layer metrics from spans, a CPU profile, and
// micro-probes. `bench compare` judges two sets of saved runs against
// the bounds in BENCHMARK.json. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch selects the subcommand. A bare flag list means run, so the
// benchmark can be driven as `bench --workload W --seed N ...`.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "run":
			args = args[1:]
		}
	}
	return runMain(args, stdout, stderr)
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-artifacts, fabric-floods, fork-sweep, or wake-storm")
	seed := fs.Int64("seed", goldenSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "time limit for the timed passes, in seconds: no pass starts that would end past it, but at least one runs")
	trace := fs.String("trace", "0", `"0" for an untraced run; "1" or a directory for a traced run writing there (default .bench_build/trace/<workload>-<seed>)`)
	out := fs.String("out", "", "also write the full result as JSON to this file, for bench compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench run: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench run: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "bench run: -seconds must not be negative")
		return 2
	}
	// One P: the guests' goroutine handoffs and the garbage collector
	// share one vCPU, so a pass's time depends on one vCPU's
	// contention, not two, and no thread spins waiting for work.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, sz: fullSize}
	switch *trace {
	case "0", "":
	case "1":
		cfg.traceDir = fmt.Sprintf(".bench_build/trace/%s-%d", w.name, *seed)
	default:
		cfg.traceDir = *trace
	}
	res, err := runBenchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench run: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench run: %v\n", err)
			return 1
		}
	}
	if err := printResultLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench run: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "bench run: %d of %d ops failed verification:\n", res.Failed, res.Attempted)
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "  %s\n", f)
		}
		return 1
	}
	return 0
}
