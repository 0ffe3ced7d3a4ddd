// Package cpumeter is the public API of the reproduction of Liu &
// Ding, "On Trustworthiness of CPU Usage Metering and Accounting"
// (ICDCSW 2010). It exposes:
//
//   - a deterministic simulated machine (CPU, memory, devices,
//     O(1)/CFS scheduler, ptrace, dynamic linker) whose kernel meters
//     CPU time simultaneously under the commodity tick-sampled scheme
//     and two fine-grained schemes;
//   - the paper's four victim workloads (O, Pi, Whetstone, Brute) as
//     genuine computations;
//   - all seven CPU-time inflation attacks of Section IV;
//   - the trustworthy metering layer of Section VI-B: TPM-attested
//     code-identity measurement, interference counters, and a
//     customer-side auditor;
//   - experiment plans that regenerate every figure of the paper's
//     evaluation.
//
// Quick start:
//
//	out, err := cpumeter.Meter(cpumeter.JobSpec{Workload: "W"})
//	fig, err := cpumeter.Reproduce("figure7", cpumeter.Options{})
//	fmt.Print(fig.Render())
package cpumeter

import (
	"fmt"
	"time"

	"repro/internal/attacks"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/integrity"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Re-exported building blocks. The aliases keep downstream code on
// one import while the implementation stays in internal packages.
type (
	// Options configures an experiment campaign (seed, CPU clock,
	// timer HZ, scheduler policy, RAM size, scale).
	Options = experiments.Options
	// Figure is a regenerated evaluation artifact with a Render
	// method producing the plain-text chart or table.
	Figure = experiments.Figure
	// RunSpec describes a single victim/attack execution.
	RunSpec = experiments.RunSpec
	// RunOut is a single execution's harvest.
	RunOut = experiments.RunOut
	// Attack is one CPU-time inflation technique.
	Attack = attacks.Attack
	// Report is the provider's attested usage report.
	Report = core.Report
	// Auditor verifies reports on the customer's behalf.
	Auditor = core.Auditor
	// Verdict is an audit outcome.
	Verdict = core.Verdict
	// Profile is the customer's reference expectation for a job.
	Profile = core.Profile
	// Manifest is the customer's code-identity allow-list.
	Manifest = integrity.Manifest
	// PID identifies a simulated process.
	PID = proc.PID

	// Frame is one addressed fabric frame: Src/Dst fabric addresses,
	// a flow id, a payload size, and the ECN/CE/ECE bits.
	Frame = cluster.Frame
	// FabricAddr is a machine's fabric address (machine i of a
	// cluster is addressed i+1).
	FabricAddr = cluster.Addr
	// REDSpec parameterises a link's RED/ECN queue-feedback policy.
	REDSpec = cluster.REDSpec
	// RouteSpec installs one static multi-hop routing-table entry.
	RouteSpec = cluster.RouteSpec

	// Cluster is a set of machines advancing in deterministic
	// lockstep virtual time, joined by modeled network links.
	Cluster = cluster.Cluster
	// ClusterConfig assembles a Cluster.
	ClusterConfig = cluster.Config
	// ClusterMachineSpec declares one cluster member.
	ClusterMachineSpec = cluster.MachineSpec
	// ClusterLinkSpec declares one one-way link between machines.
	ClusterLinkSpec = cluster.LinkSpec
	// Link is a one-way network path between two machines' NICs.
	Link = cluster.Link
	// ClusterRunSpec describes one attacker-machine → victim-machines
	// flood scenario.
	ClusterRunSpec = experiments.ClusterRunSpec
	// ClusterVictim describes one victim machine in a flood scenario.
	ClusterVictim = experiments.ClusterVictim
	// ClusterOut is one cluster scenario's harvest.
	ClusterOut = experiments.ClusterOut
	// ClusterSharedSwapSpec couples machines' swap devices into one
	// physically shared device hosted by one machine.
	ClusterSharedSwapSpec = cluster.SharedSwapSpec
	// RouterFloodSpec describes attackers flooding a victim host
	// through a shared, billed router machine with a RED/ECN egress.
	RouterFloodSpec = experiments.RouterFloodSpec
	// AckFlowStats is an ack-paced transfer's harvest.
	AckFlowStats = experiments.AckFlowStats

	// FaultSpec is a machine's seeded syscall fault-injection table
	// (kernel.Config.Faults); SyscallFault is one entry.
	FaultSpec = kernel.FaultSpec
	// SyscallFault configures one syscall's injected errno and
	// parts-per-million probability.
	SyscallFault = kernel.SyscallFault
	// Errno is a guest-visible injected error number (EIO, EAGAIN,
	// ENOMEM).
	Errno = guest.Errno
	// FlapSpec schedules deterministic outage windows on one
	// direction of a cluster link.
	FlapSpec = cluster.FlapSpec
	// ChaosSpec is the fault overlay on a routed-flood scenario:
	// syscall fault injection, a scheduled router crash/reboot, and
	// egress link flap.
	ChaosSpec = experiments.ChaosSpec
	// ChaosFloodSpec describes one routed flood under a chaos
	// overlay.
	ChaosFloodSpec = experiments.ChaosFloodSpec
	// ChaosFloodOut is one chaos scenario's harvest, including every
	// link direction's conservation ledger.
	ChaosFloodOut = experiments.ChaosFloodOut
	// LinkAccounting is one link direction's conservation ledger
	// (Sent = Delivered + Dropped + Queued).
	LinkAccounting = experiments.LinkAccounting
)

// FaultPPMScale is the parts-per-million denominator fault
// probabilities are expressed in (1e6 = certain injection).
const FaultPPMScale = kernel.PPMScale

// KnownSyscallNames returns the closed set of syscall-class names, in
// sorted order, that fault specs and guest syscalls may use.
func KnownSyscallNames() []string { return kernel.KnownSyscallNames() }

// IsKnownSyscall reports whether name is in the syscall namespace.
func IsKnownSyscall(name string) bool { return kernel.IsKnownSyscall(name) }

// Queueing disciplines a link spec may select (LinkSpec.Qdisc): FIFO
// is the default starvable wire, DRR the deficit-round-robin fair
// queue with per-flow byte quanta.
const (
	QdiscFIFO = cluster.QdiscFIFO
	QdiscDRR  = cluster.QdiscDRR
)

// UnlimitedLinkPPS selects an idealised lossless infinite-rate wire
// in link and cluster specs (no serialisation gap, no queue, no
// drops) — the first cluster model's behaviour, which such a config
// replays bit-for-bit.
const UnlimitedLinkPPS = cluster.UnlimitedPPS

// DefaultLinkQueueDepth is a link direction's tail-drop queue bound
// in packets when a spec leaves it zero.
const DefaultLinkQueueDepth = cluster.DefaultQueueDepth

// ChaosFloodBase is the chaos flood artifact's routed flood under
// options o: two attackers at 20k pps each through a RED-managed
// 30k-pps egress, beside a 300-frame ECN flow to a jiffy-billed victim
// running O.
func ChaosFloodBase(o Options) RouterFloodSpec { return experiments.ChaosFloodBase(o) }

// MeterChaosFlood executes one routed-flood scenario under a chaos
// overlay — seeded syscall faults on every machine, a scheduled
// mid-run router crash (and optional reboot), and egress link flap —
// in deterministic lockstep, harvesting every link's conservation
// ledger alongside the per-scheme bills.
func MeterChaosFlood(spec ChaosFloodSpec) (*ChaosFloodOut, error) {
	return experiments.RunChaosFlood(spec)
}

// DefaultCPUHz is the simulated clock matching the paper's testbed
// (2.53 GHz).
const DefaultCPUHz = sim.DefaultCPUHz

// JobSpec describes one metering job for Meter.
type JobSpec struct {
	// Workload is one of "O" (loop), "P" (pi), "W" (whetstone),
	// "B" (brute-force MD5).
	Workload string
	// Attack optionally arms one attack against the job.
	Attack Attack
	// Options tune the machine; the zero value uses paper defaults
	// with Scale 1.0 (full-length runs). Set Scale ~0.01 for
	// second-long jobs.
	Options Options
}

// Meter executes one job on a fresh simulated machine, launched
// through the shell, metered under all three schemes in parallel.
func Meter(spec JobSpec) (*RunOut, error) {
	return experiments.Run(RunSpec{
		Opts:     spec.Options,
		Workload: spec.Workload,
		Attack:   spec.Attack,
	})
}

// MeterCluster executes one cross-machine flood scenario: an attacker
// machine's packet generator floods each victim machine's NIC over a
// modeled link, and every machine advances in deterministic lockstep.
func MeterCluster(spec ClusterRunSpec) (*ClusterOut, error) {
	return experiments.RunCluster(spec)
}

// NewCluster builds a bare machine cluster for custom multi-machine
// scenarios (spawn guests via each MachineSpec's Boot, then Run).
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// BuildReport produces the provider-side attested usage report for a
// finished run. scheme is "jiffy" (commodity billing) or
// cpumeter.TrustedScheme.
func BuildReport(out *RunOut, scheme, aikSeed, nonce string) (*Report, error) {
	return out.Report(out.Spec.Workload, scheme, aikSeed, nonce)
}

// TrustedScheme is the billing scheme of the paper's proposed
// trustworthy meter (TSC-exact, process-aware attribution).
const TrustedScheme = core.TrustedBillingScheme

// LegacyScheme is the commodity tick-sampled billing scheme.
const LegacyScheme = core.LegacyBillingScheme

// Schemes lists the accounting schemes every run records, in billing
// order (the keys of RunOut.Victim's maps).
var Schemes = experiments.Schemes

// ManifestFromReference harvests a code-identity allow-list from a
// clean reference run (trust-on-first-use on the customer's own
// platform).
func ManifestFromReference(out *RunOut) *Manifest {
	pairs := map[string]string{}
	for _, e := range out.Measurements {
		pairs[e.Name] = e.Digest
	}
	return integrity.NewManifest(pairs)
}

// AllAttacks returns a default-strength instance of each of the
// paper's attacks, in presentation order, for the given CPU clock.
func AllAttacks(freq sim.Hz) []Attack {
	if freq == 0 {
		freq = DefaultCPUHz
	}
	return attacks.All(freq)
}

// WorkloadKeys lists the victim programs in the paper's order.
func WorkloadKeys() []string {
	specs := workloads.Specs()
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key
	}
	return keys
}

// Experiments lists the regenerable artifact ids in a stable order.
func Experiments() []string { return experiments.Artifacts() }

// Reproduce regenerates one evaluation artifact ("figure4" ...
// "figure11", "comparison", "mitigation", the ablations, or the
// cross-machine "cluster" flood scenario).
func Reproduce(id string, o Options) (*Figure, error) {
	runs, err := ReproduceAllTimed([]string{id}, o)
	if err != nil {
		return nil, err
	}
	return runs[0].Figure, nil
}

// ArtifactRun is one regenerated artifact plus its host-side cost.
type ArtifactRun struct {
	ID     string
	Figure *Figure
	// Elapsed is the host time of the runs the artifact was first to
	// declare, plus its render. A run that several artifacts declare
	// runs once and counts for the first of them.
	Elapsed time.Duration
}

// ReproduceAll regenerates the given artifacts (nil or empty = every
// artifact). It declares every artifact's runs before running any,
// runs each distinct run once on one pool of o.Parallelism workers
// (zero = all cores), so at most that many machines or clusters are
// live at once, and then renders the artifacts in input order. A
// single-machine run that several artifacts declare with equal specs
// runs once. Results are byte-identical to running each artifact
// sequentially, since every machine is seeded and self-contained.
func ReproduceAll(ids []string, o Options) ([]*Figure, error) {
	runs, err := ReproduceAllTimed(ids, o)
	if err != nil {
		return nil, err
	}
	figs := make([]*Figure, len(runs))
	for i, r := range runs {
		figs[i] = r.Figure
	}
	return figs, nil
}

// ReproduceAllTimed is ReproduceAll, additionally reporting each
// artifact's host wall-clock regeneration time (each run is timed
// inside its worker, so it is meaningful even when runs overlap).
func ReproduceAllTimed(ids []string, o Options) ([]ArtifactRun, error) {
	if len(ids) == 0 {
		ids = Experiments()
	}
	// An unknown id fails here, deterministically, before any machine
	// spins up.
	c, err := experiments.NewCampaign(ids, o)
	if err != nil {
		return nil, fmt.Errorf("cpumeter: %w", err)
	}
	took := make([]time.Duration, c.Runs())
	first := make([]int, c.Runs())
	experiments.RunIndexed(c.Runs(), o.Parallelism, func(i int) {
		start := time.Now()
		first[i] = c.Run(i)
		took[i] = time.Since(start)
	})
	runs := make([]ArtifactRun, len(ids))
	for i, d := range took {
		runs[first[i]].Elapsed += d
	}
	// Render in input order and report the earliest-declared failure,
	// keeping error output as deterministic as success output.
	for k, id := range ids {
		start := time.Now()
		fig, err := c.Render(k)
		if err != nil {
			return nil, fmt.Errorf("reproduce %s: %w", id, err)
		}
		runs[k].ID, runs[k].Figure = id, fig
		runs[k].Elapsed += time.Since(start)
	}
	return runs, nil
}

// NewMachine builds a bare simulated machine for custom scenarios
// (examples use this to spawn their own guests).
func NewMachine(cfg kernel.Config) *kernel.Machine { return kernel.New(cfg) }

// MachineConfig is the low-level machine configuration.
type MachineConfig = kernel.Config

// Checkpoint & fork: a paused machine can be snapshotted into an
// immutable image and restored — any number of times — into
// independent copies that continue the identical history until their
// inputs diverge (Machine.Fork does both in one step). This is the
// substrate behind shared-warmup campaigns: run one common prefix,
// fork the image into every variant.
type (
	// Cycles is virtual time in CPU cycles.
	Cycles = sim.Cycles
	// Machine is the simulated machine (see NewMachine).
	Machine = kernel.Machine
	// MachineImage is one machine's checkpoint (Machine.Snapshot).
	MachineImage = kernel.MachineImage
	// MachinePool recycles finished machines' scaffolding across
	// RestoreMachine calls; not safe for concurrent use.
	MachinePool = kernel.Pool
	// ForkLabSpec parameterises the checkpointable fork-lab scenario.
	ForkLabSpec = experiments.ForkLabSpec
	// ForkLabOut is a finished fork-lab run's deterministic outcome.
	ForkLabOut = experiments.ForkLabOut
)

// ErrNotSnapshottable reports a machine (or cluster) that cannot be
// checkpointed: started Body guests, forkless step guests, or a
// cluster member already finished, crashed, or rebooted.
var ErrNotSnapshottable = kernel.ErrNotSnapshottable

// DefaultForkLabWarmup is the fork lab's default mid-run checkpoint
// barrier.
const DefaultForkLabWarmup = experiments.DefaultForkLabWarmup

// SnapshotMachine checkpoints a paused machine into an immutable,
// reusable image.
func SnapshotMachine(m *kernel.Machine) (*MachineImage, error) { return m.Snapshot() }

// RestoreMachine rebuilds an independent machine from an image; the
// image remains valid for further restores.
func RestoreMachine(img *MachineImage) (*kernel.Machine, error) { return kernel.Restore(img) }

// BuildForkLab constructs the fork-lab machine: the fully
// checkpointable micro-scenario behind meterlab's snapshot/resume
// verbs and the shared-warmup campaign benchmark.
func BuildForkLab(spec ForkLabSpec) (*kernel.Machine, error) {
	return experiments.BuildForkLab(spec)
}

// HarvestForkLab digests a finished fork-lab machine.
func HarvestForkLab(m *kernel.Machine) *ForkLabOut { return experiments.HarvestForkLab(m) }

// MeterForkLabCampaign runs the shared-warmup flood sweep: one warmup
// to the barrier (zero selects the default), forked into one variant
// per flood rate. Byte-identical to building each variant's machine
// from scratch; the warmup is just paid once.
func MeterForkLabCampaign(spec ForkLabSpec, warmup sim.Cycles, rates []uint64, parallelism int) ([]*ForkLabOut, error) {
	return experiments.RunForkLabCampaign(spec, warmup, rates, parallelism)
}
