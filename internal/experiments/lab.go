// Package experiments regenerates every figure of the paper's
// evaluation (Section V): one plan per figure plus the qualitative
// comparison of Section V-C and a mitigation study for the trusted
// metering scheme of Section VI-B. Each run a plan declares builds a
// fresh simulated machine, launches the victim through the (possibly
// tampered) shell, arms one attack, runs to completion, and reports
// the billed CPU time next to ground truth.
package experiments

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Schemes lists the accounting schemes every run records, in billing
// order: the jiffy scheme is what the provider's getrusage reports.
var Schemes = []string{"jiffy", "tsc", "process-aware"}

// Options configures an experiment campaign.
type Options struct {
	// Seed drives all machine randomness (default 2010, the paper's
	// year).
	Seed int64
	// Freq is the CPU frequency (default 2.53 GHz, the testbed's).
	Freq sim.Hz
	// HZ is the timer tick rate (default 250).
	HZ uint64
	// SchedulerPolicy is "o1" (default) or "cfs".
	SchedulerPolicy string
	// PhysMemBytes sizes RAM (default 1 GiB).
	PhysMemBytes uint64
	// Scale multiplies victim baselines and attack magnitudes;
	// 1.0 (default) is paper scale, tests use ~0.01 for speed.
	Scale float64
	// Parallelism caps how many independent simulated machines or
	// clusters a campaign executes concurrently: the size of the one
	// worker pool on which cpumeter.ReproduceAll runs every requested
	// artifact's distinct runs. Zero selects runtime.GOMAXPROCS(0); 1
	// forces sequential execution. Every machine is seeded and
	// self-contained, so results — and rendered artifacts — are
	// byte-identical at any setting.
	Parallelism int
}

func (o Options) norm() Options {
	if o.Seed == 0 {
		o.Seed = 2010
	}
	if o.Freq == 0 {
		o.Freq = sim.DefaultCPUHz
	}
	if o.HZ == 0 {
		o.HZ = kernel.DefaultHZ
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	return o
}

// maxSteps bounds each machine run, so a modelling regression
// surfaces as an error instead of a hang.
const maxSteps = 400_000_000

// machineConfig builds the kernel config for one run.
func (o Options) machineConfig() kernel.Config {
	return kernel.Config{
		Seed:            o.Seed,
		CPUHz:           o.Freq,
		HZ:              o.HZ,
		SchedulerPolicy: o.SchedulerPolicy,
		PhysMemBytes:    o.PhysMemBytes,
		MaxSteps:        maxSteps,
	}
}

// RunSpec describes one victim execution.
type RunSpec struct {
	Opts Options
	// Workload is "O", "P", "W" or "B"; empty runs no victim (used
	// to measure an attack process alone).
	Workload string
	// Attack, when non-nil, is armed before launch.
	Attack attacks.Attack
	// Touches overrides the victim's hot-variable access count.
	Touches uint64
}

// PartyUsage is one process's accounted time across schemes, in
// seconds.
type PartyUsage struct {
	Name string
	PID  proc.PID
	// BySheme maps scheme name to (user, system) seconds. The
	// attacker's entry includes its reaped children, as
	// getrusage(RUSAGE_CHILDREN) would report.
	User map[string]float64
	Sys  map[string]float64
}

// Total returns user+system seconds under a scheme.
func (p PartyUsage) Total(scheme string) float64 {
	return p.User[scheme] + p.Sys[scheme]
}

// RunOut is one run's harvest.
type RunOut struct {
	Spec RunSpec
	// Victim is the billed job (zero value if no workload ran).
	Victim PartyUsage
	// Attackers are the attack's own processes (storm, tracer, hog).
	Attackers []PartyUsage
	// VictimStats are the victim group's kernel counters.
	VictimStats kernel.Stats
	// SystemAccount is the process-aware scheme's IRQ bucket.
	SystemAccountSec float64
	// Result is what the victim actually computed.
	Result *workloads.Result
	// Measurements is the machine's code-identity log.
	Measurements []kernel.Measurement
	// ElapsedSec is total virtual wall time.
	ElapsedSec float64
	// VictimPID is the billed job's pid (zero if no workload ran).
	VictimPID proc.PID
}

// usageOf collects a thread group's usage (plus reaped children) in
// seconds across schemes.
func usageOf(m *kernel.Machine, name string, pid proc.PID) PartyUsage {
	freq := m.Clock().Freq()
	pu := PartyUsage{
		Name: name,
		PID:  pid,
		User: make(map[string]float64, len(Schemes)),
		Sys:  make(map[string]float64, len(Schemes)),
	}
	for _, scheme := range Schemes {
		own, _ := m.UsageBy(scheme, pid)
		kids, _ := m.ChildrenUsageBy(scheme, pid)
		total := own.Add(kids)
		u, s := total.Seconds(freq)
		pu.User[scheme] = u
		pu.Sys[scheme] = s
	}
	return pu
}

// launched holds the handles a launched spec needs to harvest its
// results once the machine has finished running. It exists so the
// same launch/harvest pair serves both solo runs (Run) and cluster
// victim machines, which are booted before a lockstep run and
// harvested after it.
type launched struct {
	spec  RunSpec
	prog  *workloads.Result
	sess  *shell.Session
	setup *attacks.Setup
}

// launchSpec arms the spec's attack and launches its workload through
// the shell on m, which the caller has built (from spec.Opts or a
// cluster machine config sharing its frequency and scale).
func launchSpec(m *kernel.Machine, spec RunSpec) (*launched, error) {
	o := spec.Opts.norm()
	shellCfg := shell.Config{Env: map[string]string{}}
	l := &launched{
		spec: spec,
		setup: &attacks.Setup{
			M:      m,
			Shell:  &shellCfg,
			JobEnv: map[string]string{},
		},
	}

	var job *shell.Job
	if spec.Workload != "" {
		wspec, err := workloads.SpecByKey(spec.Workload)
		if err != nil {
			return nil, err
		}
		params := workloads.Params{
			Freq:            o.Freq,
			Touches:         spec.Touches,
			SecondsOverride: wspec.BaselineSeconds * o.Scale,
		}
		p, res := wspec.Build(params)
		l.prog = res
		job = &shell.Job{Prog: p, Env: l.setup.JobEnv}
		l.setup.VictimName = p.Name
		l.setup.VictimHotAddr = wspec.HotAddr
	} else if spec.Attack != nil {
		// Attack-alone run: the attack process targets itself so it
		// starts immediately and runs its full budget.
		l.setup.VictimName = attacks.AttackerProcName
	}

	if spec.Attack != nil {
		if err := spec.Attack.Arm(l.setup); err != nil {
			return nil, fmt.Errorf("arm %s: %w", spec.Attack.Key(), err)
		}
	}

	if job != nil {
		var err error
		l.sess, err = shell.Launch(m, shellCfg, *job)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// harvest collects the finished machine's accounting into a RunOut.
func (l *launched) harvest(m *kernel.Machine) *RunOut {
	out := &RunOut{
		Spec:         l.spec,
		Result:       l.prog,
		Measurements: m.Measurements(),
		ElapsedSec:   m.Clock().Seconds(m.Clock().Now()),
	}
	if l.sess != nil && len(l.sess.JobPIDs) > 0 {
		vpid := l.sess.JobPIDs[0]
		out.VictimPID = vpid
		out.Victim = usageOf(m, l.spec.Workload, vpid)
		out.VictimStats = m.Stats(vpid)
	}
	for _, ap := range l.setup.Spawned {
		out.Attackers = append(out.Attackers, usageOf(m, ap.Name, ap.PID))
	}
	if sys, ok := m.UsageBy("process-aware", metering.SystemPID); ok {
		_, s := sys.Seconds(m.Clock().Freq())
		out.SystemAccountSec = s
	}
	return out
}

// Run executes one victim/attack combination on a fresh machine.
func Run(spec RunSpec) (*RunOut, error) {
	o := spec.Opts.norm()
	cfg := o.machineConfig()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("run %s/%s: %w", spec.Workload, key(spec.Attack), err)
	}
	m := kernel.New(cfg)
	l, err := launchSpec(m, spec)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("run %s/%s: %w", spec.Workload, key(spec.Attack), err)
	}
	m.NIC().StopFlood()
	return l.harvest(m), nil
}

// physMem resolves the configured RAM size (default
// mem.DefaultPhysBytes).
func physMem(o Options) uint64 {
	if o.PhysMemBytes > 0 {
		return o.PhysMemBytes
	}
	return mem.DefaultPhysBytes
}

func key(a attacks.Attack) string {
	if a == nil {
		return "baseline"
	}
	return a.Key()
}

// Report is the attested usage report for the run's billed job,
// named jobName and billed under scheme, built from the harvest with
// its schemes in Schemes order, a Run machine's accountant order. The
// victim never forks, so its harvested usage, own plus reaped
// children, is its own.
func (r *RunOut) Report(jobName, scheme, aikSeed, nonce string) (*core.Report, error) {
	if r.VictimPID == 0 {
		return nil, errors.New("run carried no billed job")
	}
	ev := core.Report{
		JobName:          jobName,
		JobPID:           r.VictimPID,
		FreqHz:           r.Spec.Opts.norm().Freq,
		SystemAccountSec: r.SystemAccountSec,
		Counters:         r.VictimStats,
		Measurements:     slices.Clone(r.Measurements),
		ElapsedSec:       r.ElapsedSec,
	}
	for _, s := range Schemes {
		ev.Schemes = append(ev.Schemes, core.SchemeUsage{Scheme: s, UserSec: r.Victim.User[s], SysSec: r.Victim.Sys[s]})
	}
	return core.BuildReport(ev, scheme, aikSeed, nonce)
}
