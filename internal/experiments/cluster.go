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

// victimAccountants builds the three schemes with the billing scheme
// first, so the machine's getrusage-alike reads it.
func victimAccountants(billing string, tick sim.Cycles) ([]metering.Accountant, error) {
	mk := map[string]func() metering.Accountant{
		"jiffy":         func() metering.Accountant { return metering.NewJiffy(tick) },
		"tsc":           func() metering.Accountant { return metering.NewTSC() },
		"process-aware": func() metering.Accountant { return metering.NewProcessAware() },
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

// fabric declares one cluster scenario: members in declaration order,
// each seeded by its index from the campaign seed, the billed victim
// hosts among them, and the links, routes and shared swap a runner
// adds to cfg. run builds it, runs it and harvests the victim hosts.
type fabric struct {
	o     Options
	who   string // prefixes the errors of a run and of a harvest
	cfg   cluster.Config
	hosts []*victimHost
}

// member appends member i, seeded clusterSeed(o.Seed, i), with boot
// (nil: the member boots idle) and returns i.
func (f *fabric) member(name string, boot func(*cluster.Cluster, *kernel.Machine) error) int {
	i := len(f.cfg.Machines)
	cfg := f.o.machineConfig()
	cfg.Seed = clusterSeed(f.o.Seed, i)
	f.cfg.Machines = append(f.cfg.Machines, cluster.MachineSpec{Name: name, Config: cfg, Boot: boot})
	return i
}

// victim appends a billed victim host and returns its member index:
// its billing accountant comes first, and its Boot runs daemons (when
// non-nil) and then launches v's job through the shell.
func (f *fabric) victim(v ClusterVictim, daemons func(*kernel.Machine) error) (int, error) {
	if v.Billing == "" {
		v.Billing = "jiffy"
	}
	accts, err := victimAccountants(v.Billing, sim.Cycles(uint64(f.o.Freq)/f.o.HZ))
	if err != nil {
		return 0, err
	}
	h := &victimHost{billing: v.Billing}
	h.idx = f.member("", func(_ *cluster.Cluster, m *kernel.Machine) (err error) {
		if daemons != nil {
			if err := daemons(m); err != nil {
				return err
			}
		}
		h.launch, err = launchSpec(m, RunSpec{Opts: f.o, Workload: v.Workload})
		return err
	})
	f.cfg.Machines[h.idx].Config.Accountants = accts
	f.hosts = append(f.hosts, h)
	return h.idx, nil
}

// ranFabric is a finished scenario: its cluster, each victim host's
// harvest in declaration order, and its virtual wall time, the latest
// member clock.
type ranFabric struct {
	cl         *cluster.Cluster
	victims    []ClusterVictimOut
	elapsedSec float64
}

// run builds and runs the declared cluster and harvests every victim
// host in declaration order.
func (f *fabric) run() (ranFabric, error) {
	cl, err := cluster.New(f.cfg)
	if err != nil {
		return ranFabric{}, err
	}
	if err := cl.Run(); err != nil {
		return ranFabric{}, fmt.Errorf("%s: %w", f.who, err)
	}
	r := ranFabric{cl: cl, elapsedSec: float64(cl.Now()) / float64(f.o.Freq)}
	for _, h := range f.hosts {
		v, err := h.harvest(cl.Machine(h.idx))
		if err != nil {
			return ranFabric{}, fmt.Errorf("%s: %w", f.who, err)
		}
		r.victims = append(r.victims, v)
	}
	return r, nil
}

// victimHost is a fabric's billed victim host: member idx, its
// resolved billing scheme and, once booted, its launched job.
type victimHost struct {
	billing string
	idx     int
	launch  *launched
}

// harvest collects the finished host's bill. A job retired unfinished
// — a Service host quiesced while its workload stalled behind a
// daemon — is an error instead of a half-run harvest.
func (h *victimHost) harvest(m *kernel.Machine) (ClusterVictimOut, error) {
	if h.launch.prog != nil && !h.launch.prog.Done {
		return ClusterVictimOut{}, errors.New("victim workload retired before completion (stalled behind the service daemon?)")
	}
	return ClusterVictimOut{Billing: h.billing, Run: h.launch.harvest(m), PacketsReceived: m.NIC().Received()}, nil
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
	f := &fabric{o: o, who: "cluster " + clusterKey(spec)}

	// Machine 0: the attacker. Its packet generator offers FloodPPS
	// frames per second on every victim link for floodSec, with the
	// same deterministic inter-send jitter the local flood model
	// uses, then exits — a finite, replayable transmit schedule.
	f.member("", func(c *cluster.Cluster, m *kernel.Machine) error {
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
	})

	for _, v := range spec.Victims {
		vi, err := f.victim(v, nil)
		if err != nil {
			return nil, err
		}
		f.cfg.Links = append(f.cfg.Links, cluster.LinkSpec{
			From: 0, To: vi,
			LatencyUs:        spec.LinkLatencyUs,
			PacketsPerSecond: spec.LinkPPS,
			QueueDepth:       spec.LinkQueueDepth,
			RED:              spec.LinkRED,
			Qdisc:            spec.LinkQdisc,
			QuantumBytes:     spec.LinkQuantumBytes,
		})
	}

	r, err := f.run()
	if err != nil {
		return nil, err
	}
	out := &ClusterOut{Spec: spec, Victims: r.victims, ElapsedSec: r.elapsedSec}
	for i := range r.victims {
		out.PacketsSent = append(out.PacketsSent, r.cl.Link(i).Sent())
		out.PacketsDropped = append(out.PacketsDropped, r.cl.Link(i).Dropped())
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
