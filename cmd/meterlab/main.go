// Command meterlab regenerates the paper's evaluation artifacts on
// the simulated machine.
//
// Usage:
//
//	meterlab list
//	meterlab run <artifact> [flags]     one of figure4..figure11, comparison, mitigation,
//	                                    cluster, multiflood, swapflood, routerflood,
//	                                    fairflood, chaosflood
//	meterlab all [flags]                every artifact in order
//	meterlab meter <O|P|W|B> [flags]    meter one job and print all schemes
//	meterlab cluster [flags]            run one cross-machine flood scenario:
//	                                    an attacker machine floods victim
//	                                    machines over modeled links
//	meterlab chaos [flags]              run one routed flood under a chaos overlay:
//	                                    seeded syscall faults, a scheduled router
//	                                    crash/reboot, and egress link flap, with
//	                                    every link's conservation ledger printed
//	meterlab snapshot -out f [flags]    warm the checkpointable fork-lab machine
//	                                    to a virtual-time barrier, checkpoint it,
//	                                    and write a replay manifest to f
//	meterlab resume -from f [flags]     replay a manifest's warmup, checkpoint,
//	                                    restore into an independent fork, and run
//	                                    the fork to completion
//
// Flags. Each verb takes only its own and refuses any other flag or a
// stray argument. run, all, meter, cluster and chaos take -scale,
// -seed, -hz, -sched and -parallel; snapshot takes -seed; every verb
// takes -cpuprofile and -memprofile:
//
//	-scale f      victim/attack scale, 1.0 = paper scale (default 1.0)
//	-seed n       simulation seed (default 2010)
//	-hz n         timer ticks per second (default 250)
//	-sched s      scheduler policy: o1 or cfs (default o1)
//	-parallel n   campaign worker-pool size (0 = all cores, 1 = sequential);
//	              'all' runs every artifact's distinct runs on one pool, so
//	              at most n machines or clusters are live at once
//	-attack k     (meter only) arm one attack: shell ctor subst sched thrash irqflood excflood
//	-pps n        (cluster/chaos) flood rate per victim link — per attacker in
//	              chaos mode (default 40000; 0 = silent attackers);
//	              (snapshot) the fork lab's flood rate (0 = its 40000 default);
//	              (resume) re-arm the fork's flood at n (0, the default, keeps
//	              the checkpointed flood)
//	-latency-us n (cluster/chaos) one-way link latency, must be > 0 (default 500)
//	-victims s    (cluster only) victim workloads, e.g. "O,O" (default "O,O";
//	              the first victim bills jiffy, the second process-aware)
//	-link-pps n   (cluster only) per-link wire capacity (0 = 148800, a 100 Mb/s wire)
//	-queue-depth n (cluster only) per-link tail-drop queue bound in packets (0 = 64)
//	-lossless     (cluster only) idealised infinite-rate lossless wires (overrides
//	              -link-pps/-queue-depth; replays the pre-lossy link model)
//	-red-min n    (cluster only) RED/ECN early-feedback start, in queue slots
//	              (0 = RED disabled, pure tail-drop)
//	-red-max n    (cluster only) RED all-feedback threshold (default 3x -red-min,
//	              capped at the queue depth)
//	-red-maxp n   (cluster only) RED max mark/drop probability in percent (default 50)
//	-red-weight n (cluster only) RED EWMA weight exponent: the queue estimate moves
//	              by (depth-avg)/2^n per offered frame (0 = instantaneous depth)
//	-qdisc s      (cluster only) per-link queueing discipline: fifo (default) or drr
//	-quantum-bytes n (cluster only) DRR per-flow byte quantum (0 = 1514; requires -qdisc drr)
//	-fault-ppm n  (chaos only) per-syscall fault probability in parts per million
//	              (0 = no injection, 1000000 = every call fails)
//	-fault-syscalls s (chaos only) comma-separated syscalls taking injection
//	              (default "sendto,read"; requires -fault-ppm)
//	-fault-errno s (chaos only) injected errno: eagain (default, transient),
//	              enomem, or eio (hard; requires -fault-ppm)
//	-crash-at f   (chaos only) kill the router this many virtual seconds in
//	              (0 = never; must land inside the scenario horizon)
//	-restart-after f (chaos only) reboot the router this many virtual seconds
//	              after the crash (0 = stays down; requires -crash-at)
//	-flap s       (chaos only) flap the router→victim egress wire: "first:down:up"
//	              in virtual seconds (e.g. 0.5:0.1:0.4; up 0 = one outage)
//	-out f        (snapshot only) replay-manifest output path (required)
//	-from f       (resume only) replay-manifest input path (required)
//	-warmup f     (snapshot only) checkpoint barrier in virtual seconds
//	              (0 = the fork lab's default mid-run barrier)
//	-rounds n     (snapshot only) fork-lab churn rounds, scales run length
//	              (0 = default 60)
//	-cpuprofile f write a pprof CPU profile of the command to file f
//	-memprofile f write a pprof heap profile (post-run, after a GC) to file f
//
// Output is byte-identical at every -parallel setting; only the host
// wall-clock changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/attacks"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meterlab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: meterlab list | run <artifact> | all | meter <O|P|W|B> | cluster | chaos | snapshot -out f | resume -from f")
	}
	cmd, rest := args[0], args[1:]
	target := ""
	if cmd == "run" || cmd == "meter" {
		if len(rest) == 0 {
			return fmt.Errorf("%s: missing argument", cmd)
		}
		target, rest = rest[0], rest[1:]
	}
	// Each verb registers only the flags it reads, so a flag meant for
	// another verb is an error instead of a silently ignored default.
	fs := flag.NewFlagSet("meterlab "+cmd, flag.ContinueOnError)
	var verb func() error
	switch cmd {
	case "list":
		verb = func() error {
			for _, id := range cpumeter.Experiments() {
				fmt.Println(id)
			}
			return nil
		}
	case "run":
		opts := optionFlags(fs)
		verb = func() error { return runArtifact(target, *opts) }
	case "all":
		opts := optionFlags(fs)
		verb = func() error { return runAllArtifacts(*opts) }
	case "meter":
		opts := optionFlags(fs)
		attackKey := fs.String("attack", "", "attack to arm: shell ctor subst sched thrash irqflood excflood")
		verb = func() error { return meterJob(target, *attackKey, *opts) }
	case "cluster":
		opts, f := optionFlags(fs), &clusterFlags{}
		floodFlags(fs, &f.pps, &f.latencyUs)
		fs.StringVar(&f.victims, "victims", "O,O", "victim workloads (comma-separated)")
		fs.Int64Var(&f.linkPPS, "link-pps", 0, "per-link wire capacity (0 = 148800)")
		fs.Int64Var(&f.queueDepth, "queue-depth", 0, "per-link tail-drop queue bound, packets (0 = 64)")
		fs.BoolVar(&f.lossless, "lossless", false, "idealised infinite-rate lossless wires")
		fs.Int64Var(&f.redMin, "red-min", 0, "RED early-feedback start, queue slots (0 = RED disabled)")
		fs.Int64Var(&f.redMax, "red-max", 0, "RED all-feedback threshold (0 = 3x -red-min, capped at queue depth)")
		fs.Int64Var(&f.redMaxP, "red-maxp", 50, "RED max mark/drop probability, percent")
		fs.Int64Var(&f.redWeight, "red-weight", 0, "RED EWMA weight exponent (0 = instantaneous depth)")
		fs.StringVar(&f.qdisc, "qdisc", "", "per-link queueing discipline: fifo (default) or drr")
		fs.Int64Var(&f.quantumBytes, "quantum-bytes", 0, "DRR per-flow byte quantum (0 = 1514; requires -qdisc drr)")
		verb = func() error { return runCluster(*f, *opts) }
	case "chaos":
		opts, f := optionFlags(fs), &chaosFlags{}
		floodFlags(fs, &f.pps, &f.latencyUs)
		fs.Int64Var(&f.faultPPM, "fault-ppm", 0, "per-syscall fault probability, parts per million (0 = no injection)")
		fs.StringVar(&f.faultCalls, "fault-syscalls", "", "comma-separated syscalls taking injection (default sendto,read; requires -fault-ppm)")
		fs.StringVar(&f.faultErrno, "fault-errno", "", "injected errno: eagain (default), enomem, eio (requires -fault-ppm)")
		fs.Float64Var(&f.crashAt, "crash-at", 0, "kill the router this many virtual seconds in (0 = never)")
		fs.Float64Var(&f.restartAfter, "restart-after", 0, "reboot the router this many virtual seconds after the crash (0 = stays down; requires -crash-at)")
		fs.StringVar(&f.flap, "flap", "", "egress outage windows: first:down:up in virtual seconds (up 0 = one outage)")
		verb = func() error { return runChaos(*f, *opts) }
	case "snapshot":
		f := &snapshotFlags{}
		fs.Int64Var(&f.seed, "seed", 2010, "simulation seed")
		fs.StringVar(&f.out, "out", "", "replay-manifest output path (required)")
		fs.Float64Var(&f.warmup, "warmup", 0, "checkpoint barrier in virtual seconds (0 = default mid-run barrier)")
		fs.Int64Var(&f.rounds, "rounds", 0, "fork-lab churn rounds (0 = default 60)")
		fs.Int64Var(&f.pps, "pps", 0, "fork-lab flood rate (0 = the fork lab's default, 40000)")
		verb = func() error { return runSnapshot(*f) }
	case "resume":
		f := &resumeFlags{}
		fs.StringVar(&f.from, "from", "", "replay-manifest input path (required)")
		fs.Int64Var(&f.pps, "pps", 0, "re-arm the fork's flood at this rate (0 = keep the checkpointed flood)")
		verb = func() error { return runResume(*f) }
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the command to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (post-run, after a GC) to this file")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", cmd, fs.Arg(0))
	}
	prof, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	runErr := verb()
	if err := prof.stop(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// optionFlags registers the simulation options that run, all, meter,
// cluster and chaos take, bound into the Options it returns.
func optionFlags(fs *flag.FlagSet) *cpumeter.Options {
	o := &cpumeter.Options{}
	fs.Float64Var(&o.Scale, "scale", 1.0, "victim/attack scale (1.0 = paper scale)")
	fs.Int64Var(&o.Seed, "seed", 2010, "simulation seed")
	fs.Uint64Var(&o.HZ, "hz", 250, "timer ticks per second")
	fs.StringVar(&o.SchedulerPolicy, "sched", "o1", "scheduler policy: o1 or cfs")
	fs.IntVar(&o.Parallelism, "parallel", 0, "campaign worker-pool size; 'all' runs every artifact's distinct runs on one pool of n (0 = all cores, 1 = sequential)")
	return o
}

// floodFlags registers the attacker flood rate and link latency that
// cluster and chaos take.
func floodFlags(fs *flag.FlagSet, pps, latencyUs *int64) {
	fs.Int64Var(pps, "pps", 40_000, "flood rate per victim link, per attacker in chaos (0 = silent attackers)")
	fs.Int64Var(latencyUs, "latency-us", 500, "one-way link latency, microseconds (> 0)")
}

// profiler manages the optional pprof outputs wrapped around one
// command: a CPU profile recording the whole run and a heap profile
// written after it (post-GC, so it shows what the run left live, not
// transient garbage).
type profiler struct {
	cpuFile *os.File
	memPath string
}

// startProfiles opens the requested profile outputs before the
// command runs, so an unwritable path is a usage error up front
// rather than a surprise after minutes of simulation.
func startProfiles(cpuPath, memPath string) (*profiler, error) {
	p := &profiler{memPath: memPath}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
		f.Close()
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	return p, nil
}

// stop finalises both profiles. It runs even when the command failed,
// so a partial run still yields a usable CPU profile.
func (p *profiler) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}
	return nil
}

// clusterFlags carries the cluster mode's raw flag values; they are
// validated before any machine is built so bad input yields a usage
// error instead of a panic or a silently degenerate run.
type clusterFlags struct {
	victims      string
	pps          int64
	latencyUs    int64
	linkPPS      int64
	queueDepth   int64
	lossless     bool
	redMin       int64
	redMax       int64
	redMaxP      int64
	redWeight    int64
	qdisc        string
	quantumBytes int64
}

// redSpec resolves the RED flags: nil (disabled) when -red-min is 0,
// otherwise a validated spec with the -red-max default derived from
// -red-min and the resolved queue depth.
func (f clusterFlags) redSpec() (*cpumeter.REDSpec, error) {
	if f.redMin == 0 {
		if f.redMax != 0 || f.redMaxP != 50 || f.redWeight != 0 {
			return nil, fmt.Errorf("cluster: -red-max/-red-maxp/-red-weight have no effect without -red-min (RED is disabled at -red-min 0)")
		}
		return nil, nil
	}
	if f.redMin < 0 || f.redMax < 0 || f.redMaxP < 1 || f.redMaxP > 100 {
		return nil, fmt.Errorf("cluster: -red-min %d and -red-max %d must be >= 0 and -red-maxp %d in 1..100", f.redMin, f.redMax, f.redMaxP)
	}
	if f.redWeight < 0 || f.redWeight > 16 {
		return nil, fmt.Errorf("cluster: -red-weight %d must be in 0..16 (the EWMA moves by depth/2^weight per frame)", f.redWeight)
	}
	if f.lossless {
		return nil, fmt.Errorf("cluster: -red-min is meaningless with -lossless (an infinite-rate wire has no queue)")
	}
	depth := uint64(f.queueDepth)
	if depth == 0 {
		depth = cpumeter.DefaultLinkQueueDepth
	}
	maxDepth := uint64(f.redMax)
	if maxDepth == 0 {
		maxDepth = 3 * uint64(f.redMin)
		if maxDepth > depth {
			maxDepth = depth
		}
	}
	return &cpumeter.REDSpec{MinDepth: uint64(f.redMin), MaxDepth: maxDepth, MaxPct: uint64(f.redMaxP), Weight: uint64(f.redWeight)}, nil
}

// qdiscSpec validates the queueing-discipline flags.
func (f clusterFlags) qdiscSpec() (qdisc string, quantum uint64, err error) {
	switch f.qdisc {
	case "", cpumeter.QdiscFIFO:
	case cpumeter.QdiscDRR:
		if f.lossless {
			return "", 0, fmt.Errorf("cluster: -qdisc drr is meaningless with -lossless (an infinite-rate wire has no queue to schedule)")
		}
	default:
		return "", 0, fmt.Errorf("cluster: unknown -qdisc %q (have %s, %s)", f.qdisc, cpumeter.QdiscFIFO, cpumeter.QdiscDRR)
	}
	if f.quantumBytes < 0 {
		return "", 0, fmt.Errorf("cluster: -quantum-bytes %d is negative", f.quantumBytes)
	}
	if f.quantumBytes > 0 && f.qdisc != cpumeter.QdiscDRR {
		return "", 0, fmt.Errorf("cluster: -quantum-bytes requires -qdisc drr (FIFO has no per-flow quantum)")
	}
	return f.qdisc, uint64(f.quantumBytes), nil
}

// chaosFlags carries the chaos mode's raw flag values; like
// clusterFlags they are validated before any machine is built so bad
// input yields a usage error, not a panic mid-scenario.
type chaosFlags struct {
	pps          int64
	latencyUs    int64
	faultPPM     int64
	faultCalls   string
	faultErrno   string
	crashAt      float64
	restartAfter float64
	flap         string
}

// parseFlap resolves the -flap flag: "first:down:up" in virtual
// seconds, nil when unset. A zero down window is rejected — an outage
// must have a length — and so is anything non-numeric or negative.
func parseFlap(s string) (*cpumeter.FlapSpec, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("chaos: -flap %q must be first:down:up in virtual seconds (e.g. 0.5:0.1:0.4)", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("chaos: -flap %q: component %q must be a non-negative number of seconds", s, p)
		}
		vals[i] = v
	}
	if vals[1] <= 0 {
		return nil, fmt.Errorf("chaos: -flap %q has a zero down window (an outage must have a length)", s)
	}
	return &cpumeter.FlapSpec{
		FirstDownUs: uint64(vals[0] * 1e6),
		DownUs:      uint64(vals[1] * 1e6),
		UpUs:        uint64(vals[2] * 1e6),
	}, nil
}

// chaosSpec validates the fault-overlay flags and assembles the
// ChaosSpec.
func (f chaosFlags) chaosSpec() (cpumeter.ChaosSpec, error) {
	var cs cpumeter.ChaosSpec
	if f.faultPPM < 0 || f.faultPPM > cpumeter.FaultPPMScale {
		return cs, fmt.Errorf("chaos: -fault-ppm %d must be in 0..%d (parts per million)", f.faultPPM, cpumeter.FaultPPMScale)
	}
	if f.faultPPM == 0 && (f.faultCalls != "" || f.faultErrno != "") {
		return cs, fmt.Errorf("chaos: -fault-syscalls/-fault-errno have no effect without -fault-ppm (injection is disabled at 0)")
	}
	switch f.faultErrno {
	case "", "eio", "eagain", "enomem":
	default:
		return cs, fmt.Errorf("chaos: unknown -fault-errno %q (have eio, eagain, enomem)", f.faultErrno)
	}
	var calls []string
	if f.faultCalls != "" {
		for _, c := range strings.Split(f.faultCalls, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				return cs, fmt.Errorf("chaos: -fault-syscalls %q has an empty entry (want e.g. \"sendto,read\")", f.faultCalls)
			}
			if !cpumeter.IsKnownSyscall(c) {
				return cs, fmt.Errorf("chaos: -fault-syscalls entry %q is not a known syscall (known: %s)",
					c, strings.Join(cpumeter.KnownSyscallNames(), ", "))
			}
			calls = append(calls, c)
		}
	}
	if f.crashAt < 0 || f.restartAfter < 0 {
		return cs, fmt.Errorf("chaos: -crash-at %g and -restart-after %g must be >= 0 virtual seconds", f.crashAt, f.restartAfter)
	}
	if f.restartAfter > 0 && f.crashAt == 0 {
		return cs, fmt.Errorf("chaos: -restart-after requires -crash-at (nothing to reboot without a crash)")
	}
	flap, err := parseFlap(f.flap)
	if err != nil {
		return cs, err
	}
	return cpumeter.ChaosSpec{
		FaultPPM:         uint32(f.faultPPM),
		FaultSyscalls:    calls,
		FaultErrno:       f.faultErrno,
		RouterCrashSec:   f.crashAt,
		RouterRestartSec: f.restartAfter,
		VictimFlap:       flap,
	}, nil
}

// runChaos executes the chaos flood artifact's routed flood
// (ChaosFloodBase: two attackers through a RED-managed egress,
// alongside the well-behaved ECN flow) at the flags' attacker rate and
// link latency, under the flag-selected chaos overlay, and prints the
// full billing-integrity
// harvest: cumulative router bill, victim bill, flow outcome, and
// every link direction's conservation ledger. An unbalanced ledger is
// an error — the command exits nonzero so smoke runs catch it.
func runChaos(f chaosFlags, opts cpumeter.Options) error {
	cs, err := f.chaosSpec()
	if err != nil {
		return err
	}
	if f.pps < 0 {
		return fmt.Errorf("chaos: -pps %d is negative (0 means silent attackers)", f.pps)
	}
	if f.latencyUs <= 0 {
		return fmt.Errorf("chaos: -latency-us %d must be > 0 (signals need flight time for deterministic lockstep)", f.latencyUs)
	}
	fl := cpumeter.ChaosFloodBase(opts)
	fl.PerAttackerPPS = uint64(f.pps)
	fl.LinkLatencyUs = uint64(f.latencyUs)
	start := time.Now()
	out, err := cpumeter.MeterChaosFlood(cpumeter.ChaosFloodSpec{Flood: fl, Chaos: cs})
	if err != nil {
		return err
	}
	fmt.Printf("chaos: %d attackers + sender + router + victim, %d pps per attacker (elapsed %.1f virtual s)\n",
		fl.Attackers, f.pps, out.ElapsedSec)
	fmt.Printf("  faults injected %d; router incarnations %d (crashed %v), forwarded %d frames\n",
		out.FaultsInjected, out.RouterIncarnations, out.RouterCrashed, out.RouterForwarded)
	fmt.Printf("  flow: acked %d/%d, gave up %v, send errs %d, recv errs %d\n",
		out.Flow.Acked, fl.FlowFrames, out.Flow.GaveUp, out.Flow.SendErrors, out.Flow.RecvErrors)
	fmt.Println("  router daemon bill (summed across incarnations):")
	for _, scheme := range cpumeter.Schemes {
		fmt.Printf("    %-14s user %8.2fs  system %7.2fs  total %8.2fs\n",
			scheme, out.Router.User[scheme], out.Router.Sys[scheme], out.Router.Total(scheme))
	}
	v := out.Victim
	fmt.Printf("  victim (%s, bills %s): received %d frames\n",
		v.Run.Spec.Workload, v.Billing, v.PacketsReceived)
	for _, scheme := range cpumeter.Schemes {
		marker := " "
		if scheme == v.Billing {
			marker = "*"
		}
		fmt.Printf("   %s%-14s user %8.2fs  system %7.2fs  total %8.2fs\n",
			marker, scheme, v.Run.Victim.User[scheme], v.Run.Victim.Sys[scheme], v.Run.Victim.Total(scheme))
	}
	fmt.Println("  link ledgers (Sent = Delivered + Dropped + Queued):")
	for _, la := range out.Links {
		state := "balanced"
		if !la.Balanced() {
			state = "VIOLATION"
		}
		fmt.Printf("    %-22s sent %7d  delivered %7d  dropped %6d  queued %4d  %s\n",
			la.Name, la.Sent, la.Delivered, la.Dropped, la.Queued, state)
	}
	if bad := out.Unbalanced(); len(bad) > 0 {
		return fmt.Errorf("chaos: conservation ledger violated on %v", bad)
	}
	fmt.Printf("  (regenerated in %.1fs host time)\n", time.Since(start).Seconds())
	return nil
}

// parseVictims validates and expands the -victims flag: the first
// victim bills jiffy, the second process-aware, alternating.
func parseVictims(victims string) ([]cpumeter.ClusterVictim, error) {
	known := cpumeter.WorkloadKeys()
	billing := []string{"jiffy", "process-aware"}
	var vs []cpumeter.ClusterVictim
	for _, w := range strings.Split(victims, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		ok := false
		for _, k := range known {
			if w == k {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("cluster: unknown victim workload %q (have %s)", w, strings.Join(known, ", "))
		}
		vs = append(vs, cpumeter.ClusterVictim{Workload: w, Billing: billing[len(vs)%len(billing)]})
	}
	if len(vs) == 0 {
		return nil, fmt.Errorf("cluster: no victims in %q (want comma-separated workloads from %s)", victims, strings.Join(known, ", "))
	}
	return vs, nil
}

type snapshotFlags struct {
	seed   int64
	out    string
	warmup float64
	rounds int64
	pps    int64
}

type resumeFlags struct {
	from string
	pps  int64
}

// checkpointManifest is the replay file the snapshot verb writes and
// the resume verb replays: the fork-lab spec plus the barrier. A
// machine history is a pure function of (spec, barrier sequence), so
// replaying the warmup reconstructs the exact checkpointed state —
// the manifest is the image, spelled as its recipe.
type checkpointManifest struct {
	Kind         string `json:"kind"`
	Seed         int64  `json:"seed"`
	Rounds       int    `json:"rounds"`
	FloodPPS     uint64 `json:"flood_pps"`
	WarmupCycles uint64 `json:"warmup_cycles"`
}

const manifestKind = "forklab-checkpoint"

// warmupBarrier resolves the -warmup flag (virtual seconds at the
// fork lab's clock) to a cycle barrier; zero selects the default.
func warmupBarrier(warmupSec float64) (cpumeter.Cycles, error) {
	if warmupSec < 0 {
		return 0, fmt.Errorf("-warmup %g must be >= 0 virtual seconds", warmupSec)
	}
	if warmupSec == 0 {
		return cpumeter.DefaultForkLabWarmup, nil
	}
	return cpumeter.Cycles(warmupSec * float64(cpumeter.DefaultCPUHz)), nil
}

// warmForkLab builds the fork-lab machine and runs it to the barrier.
func warmForkLab(spec cpumeter.ForkLabSpec, barrier cpumeter.Cycles) (*cpumeter.Machine, error) {
	m, err := cpumeter.BuildForkLab(spec)
	if err != nil {
		return nil, err
	}
	done, err := m.RunUntil(barrier)
	if err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if done {
		m.Shutdown()
		return nil, fmt.Errorf("warmup finished before the %d-cycle barrier; lower -warmup or raise -rounds", barrier)
	}
	return m, nil
}

// runSnapshot warms the fork-lab machine to the barrier, proves it
// checkpoints, and writes the replay manifest.
func runSnapshot(f snapshotFlags) error {
	if f.out == "" {
		return fmt.Errorf("snapshot: -out is required (where to write the replay manifest)")
	}
	if f.rounds < 0 {
		return fmt.Errorf("snapshot: -rounds %d must be >= 0 (0 = default)", f.rounds)
	}
	if f.pps < 0 {
		return fmt.Errorf("snapshot: -pps %d must be >= 0 (0 = default flood)", f.pps)
	}
	barrier, err := warmupBarrier(f.warmup)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	spec := cpumeter.ForkLabSpec{Seed: f.seed, Rounds: int(f.rounds), FloodPPS: uint64(f.pps)}
	m, err := warmForkLab(spec, barrier)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	img, err := cpumeter.SnapshotMachine(m)
	m.Shutdown()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	manifest := checkpointManifest{
		Kind:         manifestKind,
		Seed:         f.seed,
		Rounds:       int(f.rounds),
		FloodPPS:     uint64(f.pps),
		WarmupCycles: uint64(barrier),
	}
	data, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: encode manifest: %w", err)
	}
	if err := os.WriteFile(f.out, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fmt.Printf("snapshot: checkpointed fork lab at cycle %d (%d tasks, %d pending events)\n",
		img.At(), img.Tasks(), img.PendingEvents())
	fmt.Printf("  replay manifest written to %s\n", f.out)
	return nil
}

// runResume replays a manifest's warmup, snapshots at the barrier,
// restores the image into an independent fork, and runs the fork to
// completion — the full checkpoint round trip, in process.
func runResume(f resumeFlags) error {
	if f.from == "" {
		return fmt.Errorf("resume: -from is required (a manifest written by 'meterlab snapshot')")
	}
	if f.pps < 0 {
		return fmt.Errorf("resume: -pps %d must be >= 0 (0 = keep the checkpointed flood)", f.pps)
	}
	data, err := os.ReadFile(f.from)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	var manifest checkpointManifest
	if err := json.Unmarshal(data, &manifest); err != nil {
		return fmt.Errorf("resume: parse %s: %w", f.from, err)
	}
	if manifest.Kind != manifestKind {
		return fmt.Errorf("resume: %s is not a fork-lab checkpoint manifest (kind %q, want %q)",
			f.from, manifest.Kind, manifestKind)
	}
	if manifest.WarmupCycles == 0 {
		return fmt.Errorf("resume: manifest %s has a zero warmup barrier", f.from)
	}
	spec := cpumeter.ForkLabSpec{Seed: manifest.Seed, Rounds: manifest.Rounds, FloodPPS: manifest.FloodPPS}
	m, err := warmForkLab(spec, cpumeter.Cycles(manifest.WarmupCycles))
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	img, err := cpumeter.SnapshotMachine(m)
	m.Shutdown()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	fork, err := cpumeter.RestoreMachine(img)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer fork.Shutdown()
	if f.pps > 0 {
		fork.NIC().StartFlood(uint64(f.pps))
	}
	if err := fork.Run(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	out := cpumeter.HarvestForkLab(fork)
	fmt.Printf("resume: replayed to cycle %d, restored an independent fork, ran it to completion\n", img.At())
	fmt.Printf("  fork finished at cycle %d: %d faults injected, %d frames received\n",
		out.Clock, out.Faults, out.RxSeen)
	fmt.Print(out.Digest)
	return nil
}

// runCluster executes one custom cross-machine flood scenario and
// prints every victim host's bill under its own billing scheme.
func runCluster(f clusterFlags, opts cpumeter.Options) error {
	vs, err := parseVictims(f.victims)
	if err != nil {
		return err
	}
	if f.pps < 0 {
		return fmt.Errorf("cluster: -pps %d is negative (0 means a silent attacker)", f.pps)
	}
	if f.latencyUs <= 0 {
		return fmt.Errorf("cluster: -latency-us %d must be > 0 (signals need flight time for deterministic lockstep)", f.latencyUs)
	}
	if f.linkPPS < 0 || f.queueDepth < 0 {
		return fmt.Errorf("cluster: -link-pps %d and -queue-depth %d must be >= 0", f.linkPPS, f.queueDepth)
	}
	linkPPS := uint64(f.linkPPS)
	if f.lossless {
		linkPPS = cpumeter.UnlimitedLinkPPS
	}
	red, err := f.redSpec()
	if err != nil {
		return err
	}
	qdisc, quantum, err := f.qdiscSpec()
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := cpumeter.MeterCluster(cpumeter.ClusterRunSpec{
		Opts:             opts,
		Victims:          vs,
		FloodPPS:         uint64(f.pps),
		LinkLatencyUs:    uint64(f.latencyUs),
		LinkPPS:          linkPPS,
		LinkQueueDepth:   uint64(f.queueDepth),
		LinkRED:          red,
		LinkQdisc:        qdisc,
		LinkQuantumBytes: quantum,
	})
	if err != nil {
		return err
	}
	fmt.Printf("cluster: 1 attacker + %d victim machines, %d pps per link, %d us link latency (elapsed %.1f virtual s)\n",
		len(vs), f.pps, f.latencyUs, out.ElapsedSec)
	for i, v := range out.Victims {
		fmt.Printf("  victim %d (%s, bills %s): sent %d frames, received %d, dropped %d\n",
			i+1, v.Run.Spec.Workload, v.Billing, out.PacketsSent[i], v.PacketsReceived, out.PacketsDropped[i])
		for _, scheme := range cpumeter.Schemes {
			marker := " "
			if scheme == v.Billing {
				marker = "*"
			}
			fmt.Printf("   %s%-14s user %8.2fs  system %7.2fs  total %8.2fs\n",
				marker, scheme, v.Run.Victim.User[scheme], v.Run.Victim.Sys[scheme], v.Run.Victim.Total(scheme))
		}
		fmt.Printf("    system account (process-aware IRQ bucket): %.2f s\n", v.Run.SystemAccountSec)
	}
	fmt.Printf("  (regenerated in %.1fs host time)\n", time.Since(start).Seconds())
	return nil
}

func runArtifact(id string, opts cpumeter.Options) error {
	start := time.Now()
	fig, err := cpumeter.Reproduce(id, opts)
	if err != nil {
		return fmt.Errorf("reproduce %s: %w", id, err)
	}
	fmt.Print(fig.Render())
	fmt.Printf("  (regenerated in %.1fs host time)\n\n", time.Since(start).Seconds())
	return nil
}

// runAllArtifacts regenerates every artifact through the parallel
// campaign engine and prints each with its own regeneration time, so
// speedups are visible without the bench harness.
func runAllArtifacts(opts cpumeter.Options) error {
	start := time.Now()
	runs, err := cpumeter.ReproduceAllTimed(nil, opts)
	if err != nil {
		return err
	}
	for _, r := range runs {
		fmt.Print(r.Figure.Render())
		fmt.Printf("  (regenerated in %.1fs host time)\n\n", r.Elapsed.Seconds())
	}
	var artifactSec float64
	for _, r := range runs {
		artifactSec += r.Elapsed.Seconds()
	}
	fmt.Printf("%d artifacts in %.1fs wall time (%.1fs summed artifact time)\n",
		len(runs), time.Since(start).Seconds(), artifactSec)
	return nil
}

func meterJob(workload, attackKey string, opts cpumeter.Options) error {
	var attack cpumeter.Attack
	if attackKey != "" {
		freq := opts.Freq
		if freq == 0 {
			freq = cpumeter.DefaultCPUHz
		}
		for _, a := range attacks.All(freq) {
			if a.Key() == attackKey {
				attack = a
			}
		}
		if attack == nil {
			return fmt.Errorf("unknown attack %q", attackKey)
		}
	}
	out, err := cpumeter.Meter(cpumeter.JobSpec{Workload: workload, Attack: attack, Options: opts})
	if err != nil {
		return err
	}
	fmt.Printf("job %s", workload)
	if attack != nil {
		fmt.Printf(" under %s", attack.Name())
	}
	fmt.Printf(" (elapsed %.1f virtual s)\n", out.ElapsedSec)
	for _, scheme := range cpumeter.Schemes {
		fmt.Printf("  %-14s user %8.2fs  system %7.2fs  total %8.2fs\n",
			scheme, out.Victim.User[scheme], out.Victim.Sys[scheme], out.Victim.Total(scheme))
	}
	st := out.VictimStats
	fmt.Printf("  counters: ticks=%d ctxsw=%d preempt=%d traps=%d minor=%d major=%d irqcycles=%d\n",
		st.TicksAbsorbed, st.ContextSwitches, st.Preemptions, st.TraceStops, st.MinorFaults, st.MajorFaults, st.IRQCycles)
	if out.Result != nil {
		output := out.Result.Output
		if len(output) > 60 {
			output = output[:60] + "…"
		}
		fmt.Printf("  program output: %s (done=%v)\n", output, out.Result.Done)
	}
	return nil
}
