// Cluster scenarios: the paper's interrupt flood (Fig. 10) driven the
// way the paper actually drives it — from a second PC. A cluster run
// builds one attacker machine and N victim machines joined by modeled
// links; the attacker hosts a real packet-generator process whose
// frames cross a link and raise genuine NIC receive interrupts on the
// victims. Each victim machine can bill under a different accounting
// scheme, so one scenario shows the commodity-billed victim's bill
// inflating while the process-aware-billed victim's stays put.
//
// Cluster runs are RunSpec-shaped work for the campaign engine: an
// artifact declares its whole []ClusterRunSpec list, and the
// campaign runs the independent clusters on the same worker pool as
// single-machine runs, with the same declaration-order,
// byte-identical-results contract.
package experiments

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/metering"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ClusterVictim describes one victim machine in a cluster scenario.
type ClusterVictim struct {
	// Workload is "O", "P", "W" or "B".
	Workload string
	// Billing selects the machine's billing (first) accountant:
	// "jiffy" (default, the commodity scheme), "tsc", or
	// "process-aware". All three schemes still record in parallel.
	Billing string
}

// ClusterRunSpec describes one attacker-machine → victim-machines
// flood scenario executed in deterministic lockstep.
type ClusterRunSpec struct {
	Opts    Options
	Victims []ClusterVictim
	// FloodPPS is the attacker's transmit rate per victim link; zero
	// means the attacker machine stays silent (baseline cluster).
	FloodPPS uint64
	// LinkLatencyUs is the one-way link latency; zero selects
	// cluster.DefaultLatencyUs.
	LinkLatencyUs uint64
	// LinkPPS is each attacker→victim wire's serialisation capacity;
	// zero selects cluster.DefaultLinkPPS, cluster.UnlimitedPPS an
	// idealised lossless infinite-rate pipe (the first cluster
	// model, which such a config replays bit-for-bit).
	LinkPPS uint64
	// LinkQueueDepth bounds each wire's tail-drop queue in packets;
	// zero selects cluster.DefaultQueueDepth.
	LinkQueueDepth uint64
	// LinkRED, when non-nil, arms RED/ECN queue feedback on every
	// attacker→victim wire (both directions); nil keeps pure
	// tail-drop, which replays pre-RED histories bit-for-bit.
	LinkRED *cluster.REDSpec
	// LinkQdisc selects every wire's queueing discipline:
	// cluster.QdiscFIFO (default, replays pre-qdisc histories
	// bit-for-bit) or cluster.QdiscDRR.
	LinkQdisc string
	// LinkQuantumBytes is DRR's per-flow byte quantum; zero selects
	// the cluster default. Only meaningful with LinkQdisc DRR.
	LinkQuantumBytes uint64
}

// ClusterVictimOut is one victim machine's harvest.
type ClusterVictimOut struct {
	// Billing names the machine's billing scheme.
	Billing string
	// Run is the victim machine's ordinary run harvest (usage across
	// all schemes, stats, system account, program result).
	Run *RunOut
	// PacketsReceived counts flood frames delivered to this machine's
	// NIC.
	PacketsReceived uint64
}

// ClusterOut is one cluster scenario's harvest.
type ClusterOut struct {
	Spec ClusterRunSpec
	// Victims are in Spec.Victims order.
	Victims []ClusterVictimOut
	// PacketsSent counts frames the attacker offered per victim link.
	PacketsSent []uint64
	// PacketsDropped counts frames per victim link that the wire
	// tail-dropped or that were offered after the victim finished.
	PacketsDropped []uint64
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// clusterSeed derives machine i's seed from the campaign seed:
// deterministic, collision-free for small i, and distinct from the
// single-machine runs of the same campaign.
func clusterSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i+1)
}

// clusterElapsedSec reports the slowest machine's virtual wall time —
// the shared ElapsedSec semantics of every cluster harvest.
func clusterElapsedSec(cl *cluster.Cluster) float64 {
	var sec float64
	for i := 0; i < cl.Size(); i++ {
		if s := cl.Machine(i).Clock().Seconds(cl.Machine(i).Clock().Now()); s > sec {
			sec = s
		}
	}
	return sec
}

// victimAccountants builds the three schemes with the billing scheme
// first, so the machine's getrusage-alike reads it.
func victimAccountants(billing string, tick sim.Cycles) ([]metering.Accountant, error) {
	mk := map[string]func() metering.Accountant{
		"jiffy":         func() metering.Accountant { return metering.NewJiffy(tick) },
		"tsc":           func() metering.Accountant { return metering.NewTSC() },
		"process-aware": func() metering.Accountant { return metering.NewProcessAware() },
	}
	if billing == "" {
		billing = "jiffy"
	}
	if _, ok := mk[billing]; !ok {
		return nil, fmt.Errorf("cluster: unknown billing scheme %q (have %v)", billing, Schemes)
	}
	accts := []metering.Accountant{mk[billing]()}
	for _, s := range Schemes {
		if s != billing {
			accts = append(accts, mk[s]())
		}
	}
	return accts, nil
}

// victimHost is a cluster scenario's billed victim machine. machine
// declares it and harvest collects its bill once the cluster has run.
type victimHost struct {
	v      ClusterVictim
	launch *launched
}

// machine declares the host as cluster member idx: the billing
// accountant first, and a Boot that runs daemons (when non-nil) and
// then launches the victim's job through the shell.
func (h *victimHost) machine(o Options, v ClusterVictim, idx int, daemons func(*kernel.Machine) error) (cluster.MachineSpec, error) {
	accts, err := victimAccountants(v.Billing, sim.Cycles(uint64(o.Freq)/o.HZ))
	if err != nil {
		return cluster.MachineSpec{}, err
	}
	h.v = v
	cfg := o.machineConfig()
	cfg.Seed = clusterSeed(o.Seed, idx)
	cfg.Accountants = accts
	return cluster.MachineSpec{
		Config: cfg,
		Boot: func(_ *cluster.Cluster, m *kernel.Machine) error {
			if daemons != nil {
				if err := daemons(m); err != nil {
					return err
				}
			}
			l, err := launchSpec(m, RunSpec{Opts: o, Workload: v.Workload})
			if err != nil {
				return err
			}
			h.launch = l
			return nil
		},
	}, nil
}

// harvest collects the finished host's bill. A job retired unfinished
// — a Service host quiesced while its workload stalled behind a
// daemon — is an error instead of a half-run harvest.
func (h *victimHost) harvest(m *kernel.Machine) (ClusterVictimOut, error) {
	if h.launch.prog != nil && !h.launch.prog.Done {
		return ClusterVictimOut{}, errors.New("victim workload retired before completion (stalled behind the service daemon?)")
	}
	billing := h.v.Billing
	if billing == "" {
		billing = "jiffy"
	}
	return ClusterVictimOut{Billing: billing, Run: h.launch.harvest(m), PacketsReceived: m.NIC().Received()}, nil
}

// floodSeconds is an attack's transmit duration: 1.5x the longest
// victim baseline, so the attack outlives every victim.
func floodSeconds(o Options, victims ...ClusterVictim) (float64, error) {
	var longest float64
	for _, v := range victims {
		w, err := workloads.SpecByKey(v.Workload)
		if err != nil {
			return 0, err
		}
		if s := w.BaselineSeconds * o.Scale; s > longest {
			longest = s
		}
	}
	return longest * 1.5, nil
}

// pktgen is the attacker machine's packet generator: inject this
// slot's frames onto every victim link (host-side calls, fine
// mid-activation), bill one sendto, sleep out the jittered slot,
// repeat. It drives links, host pointers its copies would share, so
// it is spawned without a fork.
type pktgen struct {
	targets  []pktTarget
	interval sim.Cycles
	packets  uint64
	n        uint64
	pc       uint8 // 0: first activation; 1: sendto billed; 2: slot slept
}

// pktTarget is one victim link and the frame pktgen injects on it.
type pktTarget struct {
	link  *cluster.Link
	frame cluster.Frame
}

func (g *pktgen) Activate(ctx guest.Context, _ guest.Resume) bool {
	switch g.pc {
	case 1:
		g.pc = 2
		ctx.Sleep(ctx.Rand().Jitter(g.interval, g.interval/4+1))
		return true
	case 2:
		g.n++
	}
	if g.n >= g.packets {
		return false
	}
	for _, tg := range g.targets {
		tg.link.Send(tg.frame)
	}
	g.pc = 1
	//simlint:errno-ok modeled flood binary never checks errno; the bill charges the attempt
	ctx.Syscall("sendto")
	return true
}

// RunCluster executes one flood scenario: machine 0 is the attacker,
// machines 1..N are the victims, one attacker→victim link each. The
// whole cluster advances in lockstep, so the run is a pure function
// of the spec.
func RunCluster(spec ClusterRunSpec) (*ClusterOut, error) {
	o := spec.Opts.norm()
	if len(spec.Victims) == 0 {
		return nil, fmt.Errorf("cluster: no victim machines in spec")
	}
	floodSec, err := floodSeconds(o, spec.Victims...)
	if err != nil {
		return nil, err
	}

	hosts := make([]victimHost, len(spec.Victims))
	machines := make([]cluster.MachineSpec, 0, len(spec.Victims)+1)

	// Machine 0: the attacker. Its packet generator offers FloodPPS
	// frames per second on every victim link for floodSec, with the
	// same deterministic inter-send jitter the local flood model
	// uses, then exits — a finite, replayable transmit schedule.
	attackerCfg := o.machineConfig()
	attackerCfg.Seed = clusterSeed(o.Seed, 0)
	machines = append(machines, cluster.MachineSpec{
		Config: attackerCfg,
		Boot: func(c *cluster.Cluster, m *kernel.Machine) error {
			if spec.FloodPPS == 0 {
				return nil // silent attacker: machine finishes at boot
			}
			g := pktgen{targets: make([]pktTarget, len(spec.Victims))}
			for i := range spec.Victims {
				g.targets[i] = pktTarget{
					link:  c.Link(i),
					frame: cluster.Frame{Src: c.AddrOf(0), Dst: c.AddrOf(i + 1)},
				}
			}
			g.interval = sim.Cycles(uint64(o.Freq) / spec.FloodPPS)
			if g.interval == 0 {
				g.interval = 1
			}
			g.packets = uint64(floodSec * float64(spec.FloodPPS))
			step, _ := guest.Resumable(g)
			_, err := m.Spawn(kernel.SpawnConfig{
				Name: "pktgen", Content: "junk-ip packet generator v1", Step: step,
			})
			return err
		},
	})

	for i, v := range spec.Victims {
		victim, err := hosts[i].machine(o, v, i+1, nil)
		if err != nil {
			return nil, err
		}
		machines = append(machines, victim)
	}

	links := make([]cluster.LinkSpec, len(spec.Victims))
	for i := range spec.Victims {
		links[i] = cluster.LinkSpec{
			From: 0, To: i + 1,
			LatencyUs:        spec.LinkLatencyUs,
			PacketsPerSecond: spec.LinkPPS,
			QueueDepth:       spec.LinkQueueDepth,
			RED:              spec.LinkRED,
			Qdisc:            spec.LinkQdisc,
			QuantumBytes:     spec.LinkQuantumBytes,
		}
	}

	cl, err := cluster.New(cluster.Config{Machines: machines, Links: links})
	if err != nil {
		return nil, err
	}
	if err := cl.Run(); err != nil {
		return nil, fmt.Errorf("cluster %s: %w", clusterKey(spec), err)
	}

	out := &ClusterOut{Spec: spec, ElapsedSec: clusterElapsedSec(cl)}
	for i := range hosts {
		v, err := hosts[i].harvest(cl.Machine(i + 1))
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", clusterKey(spec), err)
		}
		out.Victims = append(out.Victims, v)
		out.PacketsSent = append(out.PacketsSent, cl.Link(i).Sent())
		out.PacketsDropped = append(out.PacketsDropped, cl.Link(i).Dropped())
	}
	return out, nil
}

func clusterKey(spec ClusterRunSpec) string {
	return fmt.Sprintf("%d-victims/%dpps", len(spec.Victims), spec.FloodPPS)
}

// victimBillSeconds reads a victim's billed (user, system) seconds
// under its own machine's billing scheme.
func victimBillSeconds(v ClusterVictimOut) (user, sys float64) {
	return v.Run.Victim.User[v.Billing], v.Run.Victim.Sys[v.Billing]
}

// clusterFlood regenerates the cross-machine interrupt-flood
// scenario: one attacker machine floods two victim machines running
// the same job, one billed by the commodity jiffy scheme and one by
// the process-aware scheme, at increasing flood rates. The commodity
// bill inflates with the rate; the process-aware bill does not,
// because handler time lands on the system account.
func clusterFlood(o Options) plan {
	return clusterFloodWith(o, 0, 0)
}

// clusterFloodWith is clusterFlood with explicit wire parameters: the
// lossless-replay regression test renders the artifact under an
// idealised infinite-rate link and demands byte-identity with the
// default finite-capacity wire (whose queue never binds at these
// offered rates).
func clusterFloodWith(o Options, linkPPS, queueDepth uint64) plan {
	rates := []uint64{0, 10_000, 40_000}
	victims := []ClusterVictim{
		{Workload: "O", Billing: "jiffy"},
		{Workload: "O", Billing: "process-aware"},
	}
	specs := make([]ClusterRunSpec, len(rates))
	for i, pps := range rates {
		specs[i] = ClusterRunSpec{Opts: o, Victims: victims, FloodPPS: pps, LinkPPS: linkPPS, LinkQueueDepth: queueDepth}
	}
	return declare(specs, RunCluster, clusterKey, func(outs []*ClusterOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Cluster Flood",
			Title: "Cross-Machine Interrupt Flooding (one attacker PC, two victim hosts)",
			Unit:  "CPU seconds (billed by each victim host's own scheme)",
		}
		groups := []string{"jiffy-host", "procaware-host"}
		for vi, group := range groups {
			for ri, pps := range rates {
				label := "no flood"
				if pps > 0 {
					label = fmt.Sprintf("%dk pps", pps/1000)
				}
				user, sys := victimBillSeconds(outs[ri].Victims[vi])
				fig.Bars = append(fig.Bars, billBar(group, label, user, sys))
			}
		}
		last := outs[len(outs)-1]
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("attacker machine's pktgen sent %d frames per victim link; victims received %d and %d",
				last.PacketsSent[0], last.Victims[0].PacketsReceived, last.Victims[1].PacketsReceived),
			"expectation: jiffy-billed host's system time grows with flood rate; process-aware host's bill is flat (handler time lands on the system account)",
			fmt.Sprintf("system account on the process-aware host at 40k pps: %.2f s", last.Victims[1].Run.SystemAccountSec),
		)
		return fig, nil
	})
}
