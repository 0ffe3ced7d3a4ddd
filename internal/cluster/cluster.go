// Package cluster runs several simulated machines as one deterministic
// topology: N seeded, self-contained kernel.Machines plus modeled
// network links between their NICs. This is the substrate the paper's
// externally driven attacks actually need — the interrupt flood of
// Fig. 10 is launched from a second PC, not from inside the victim —
// so the flooding attacker becomes a genuine machine whose transmit
// schedule crosses a link instead of an in-machine event generator.
//
// Links are bidirectional, finite-capacity channels. Each declared
// LinkSpec yields a forward direction (From→To) and a reverse
// direction (To→From, via Link.Reverse); each direction serialises
// frames at the wire's packet rate through a bounded queue with
// deterministic tail-drop, counted in Sent/Delivered/Dropped. Both
// directions enter their sending member's forwarding table, so guests
// transmit through the billed kernel tx path (guest.Context.NetSend)
// and receivers can reply — ack-paced flows whose rate is shaped by
// the receiver's responsiveness.
//
// Serialisation is byte-accurate: a frame occupies the wire for
// Frame.Bytes at the link's byte rate (PacketsPerSecond minimum-size
// frames per second), with zero-Bytes frames costing exactly one
// per-frame slot — the pre-byte model, preserved bit-for-bit. Each
// link direction runs a queueing discipline (LinkSpec.Qdisc): FIFO by
// default, or DRR with per-Frame.Flow queues and a byte quantum so a
// flooding flow cannot starve a sparse one on a congested egress.
// RED queue feedback can gate on an EWMA depth estimate
// (REDSpec.Weight) instead of the instantaneous backlog.
//
// Machines advance in deterministic lockstep virtual time. Each round
// the cluster computes the earliest time any machine can make
// progress (the min-next-event-time barrier), extends it by the
// lookahead — the smallest cross-machine signal flight time — and
// advances every machine to that barrier with Machine.RunUntil. A
// packet sent at or after the barrier base arrives at least one
// lookahead later, so no machine ever needs an event from a region
// another machine has not yet simulated; the round-robin order within
// a round is fixed, so the whole cluster history is a pure function
// of its seeds.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Frame is one addressed fabric frame (see device.Frame): Src/Dst
// fabric addresses, a flow id, a payload size, and the ECN
// capability and congestion-experienced bits.
type Frame = device.Frame

// Addr is a fabric address (see device.Addr). A cluster assigns
// machine i the address Addr(i+1); zero is reserved for
// "unaddressed".
type Addr = device.Addr

// DefaultLatencyUs is the one-way link latency when a LinkSpec leaves
// it zero: 500 µs, a 2008-era switched-LAN round trip's half.
const DefaultLatencyUs = 500

// DefaultLinkPPS is the wire's packet capacity when a LinkSpec leaves
// it zero: ~148.8k minimum-size frames per second, a saturated
// 100 Mb/s link.
const DefaultLinkPPS = 148_800

// UnlimitedPPS selects an infinite-rate wire: no serialisation gap,
// no queue, no drops — the idealised lossless pipe of the first
// cluster model. A lossless infinite-rate link replays histories
// recorded under that model bit-for-bit.
const UnlimitedPPS = math.MaxUint64

// DefaultQueueDepth is a link direction's tail-drop queue bound, in
// packets, when a LinkSpec leaves it zero (a shallow 2008-era switch
// port buffer). A frame that would have to queue this deep behind
// earlier frames is dropped instead of delivered.
const DefaultQueueDepth = 64

// DefaultSwapServiceUs is the host-side CPU service per remote swap
// page when a SharedSwapSpec leaves it zero: ~40 µs of block-layer,
// copy, and reply work, in line with 2008-era NFS/NBD page service.
const DefaultSwapServiceUs = 40

// Queueing disciplines a LinkSpec.Qdisc may select.
const (
	// QdiscFIFO is the default first-come-first-served wire: frames
	// serialise in offer order through one virtual horizon, and a
	// flooding flow freely starves everything behind it. An empty
	// Qdisc resolves to FIFO, which replays pre-qdisc histories
	// bit-for-bit.
	QdiscFIFO = "fifo"
	// QdiscDRR arms deficit-round-robin per-flow fairness: each
	// Frame.Flow gets its own queue, active flows are served a byte
	// quantum per round, and under buffer pressure backlog is shed
	// from the fattest flow — so a flood caps its own share of a
	// congested egress instead of monopolising it.
	QdiscDRR = "drr"
)

// DefaultQuantumBytes is DRR's per-flow byte quantum when a LinkSpec
// leaves it zero: one maximum-size Ethernet frame, the smallest
// quantum that keeps packet-at-a-time DRR work-conserving.
const DefaultQuantumBytes = 1514

// MachineSpec declares one cluster member.
type MachineSpec struct {
	// Name optionally names the machine for diagnostics. Non-empty
	// names must be unique within a cluster.
	Name string
	// Config assembles the machine; every machine in a cluster must
	// share one CPUHz so the lockstep barrier is a single timebase.
	Config kernel.Config
	// Boot spawns the machine's initial processes (shell, workload,
	// attack daemons). It runs during New after every machine and
	// link is built but before any machine advances, so a guest body
	// may capture a link (c.Link(i)) to transmit on.
	Boot func(c *Cluster, m *kernel.Machine) error
	// Service marks a machine whose tasks may legitimately block on
	// network input forever (a forwarding router's daemon, an echo
	// responder). When every unfinished machine is a service machine
	// and no frame is in flight, the cluster shuts the service
	// machines down and completes instead of reporting ErrStalled.
	// The retirement is machine-granular: if a Service machine also
	// hosts a finite job, a stall of that job is indistinguishable
	// from quiescence here, so callers co-hosting jobs with daemons
	// must verify the job's own completion after Run.
	Service bool
	// CrashAt, when nonzero, schedules a hard machine failure at that
	// virtual cycle: the machine is torn down mid-run exactly like
	// Shutdown — tasks unwound, pending events dead — and frames
	// already in flight toward it are counted as link drops, so
	// Sent = Delivered + Dropped + Queued survives the failure. The
	// crash is scheduled work for the lockstep barrier: a machine
	// blocked forever on network input still dies on time. A machine
	// whose tasks all exit before CrashAt cancels the crash. One-shot:
	// a restarted incarnation does not crash again.
	CrashAt sim.Cycles
	// RestartAfter, when nonzero, reboots the crashed machine that
	// many cycles after CrashAt: a fresh kernel.Machine built from
	// this spec (clock fast-forwarded to the reboot instant, first
	// timer tick one jiffy later), plugged in like the original — same
	// fabric address, forwarding table and links — with Boot run
	// again. Task state is fresh; ledgers are per-incarnation and
	// survive only as the sum over Cluster.Incarnations. Frames offered
	// while the machine was down stay dropped. Requires CrashAt.
	RestartAfter sim.Cycles
}

// FlapSpec schedules deterministic outage windows on one direction of
// a link: the wire goes down at FirstDownUs, stays down for DownUs,
// and — with UpUs nonzero — repeats forever with period DownUs+UpUs
// (UpUs zero makes it a single outage). A FIFO direction drops every
// frame offered while down; a DRR direction keeps admitted backlog
// queued and resumes serving when the window ends. The schedule is
// pure virtual time, so flapped histories replay bit-for-bit, and a
// nil spec leaves the wire permanently up (bit-identical to today).
type FlapSpec struct {
	// FirstDownUs is when the first outage begins, in microseconds of
	// virtual time (zero: down from boot).
	FirstDownUs uint64
	// DownUs is each outage's length in microseconds; must be nonzero
	// when the spec is armed.
	DownUs uint64
	// UpUs is the gap between outages; zero means the single window
	// [FirstDownUs, FirstDownUs+DownUs) is the whole schedule.
	UpUs uint64
}

// LinkSpec declares one bidirectional link between two machines'
// NICs. Each direction gets its own serialisation/queue state from
// the same rate and depth parameters.
type LinkSpec struct {
	// From and To index Config.Machines.
	From, To int
	// LatencyUs is the one-way propagation delay in microseconds;
	// zero selects DefaultLatencyUs.
	LatencyUs uint64
	// PacketsPerSecond is the wire's serialisation capacity; packets
	// offered faster queue behind each other and tail-drop beyond
	// QueueDepth. Zero selects DefaultLinkPPS; UnlimitedPPS selects
	// an idealised lossless infinite-rate wire.
	PacketsPerSecond uint64
	// QueueDepth bounds each direction's queue, in packets; zero
	// selects DefaultQueueDepth. Ignored under UnlimitedPPS.
	QueueDepth uint64
	// Bottleneck, when non-empty, names a shared last-hop pipe: the
	// forward directions of all links carrying the same tag serialise
	// through one queue (N attackers converging on one victim share
	// the victim's ingress wire). Tagged links must agree on
	// PacketsPerSecond and QueueDepth (after default resolution).
	// Reverse directions keep private pipes.
	//
	// Sharing granularity is the lockstep round: within one round,
	// frames from different machines reach the pipe in machine order
	// rather than strict virtual-time order (the sender needs its
	// carry/drop feedback synchronously, so resolution cannot be
	// deferred to the barrier). A later-indexed machine's frame may
	// therefore queue behind — or tail-drop after — an earlier-
	// indexed machine's virtually-later frame; the skew is bounded by
	// one lookahead window (the smallest link latency) and the
	// history remains a pure function of the Config.
	Bottleneck string
	// RED, when non-nil, arms RED/ECN-style queue feedback on both of
	// this link's directions (each direction keeps its own queue
	// state and random stream). Nil keeps pure tail-drop, which
	// replays pre-RED histories bit-for-bit. Bottleneck-tagged links
	// must agree on RED parameters like they agree on rate and depth.
	RED *REDSpec
	// Qdisc selects both directions' egress queueing discipline:
	// QdiscFIFO (the default; "" resolves to it) or QdiscDRR.
	// Bottleneck-tagged links must agree on the discipline and its
	// quantum. DRR needs a finite-rate wire (an infinite-rate pipe
	// has no queue to schedule), so it rejects UnlimitedPPS.
	Qdisc string
	// QuantumBytes is DRR's per-flow byte quantum; zero selects
	// DefaultQuantumBytes. Only meaningful with Qdisc QdiscDRR.
	QuantumBytes uint64
	// Flap, when non-nil, arms outage windows on the forward (From→To)
	// direction; RevFlap on the reverse. Flapped links cannot share a
	// Bottleneck pipe (a shared wire cannot take per-link outages).
	Flap    *FlapSpec
	RevFlap *FlapSpec
}

// REDSpec parameterises one pipe's random-early-detection policy.
// When a frame would queue q deep (in serialisation slots) behind
// earlier frames:
//
//   - q < MinDepth: carried unmolested;
//   - MinDepth <= q < MaxDepth: marked-or-dropped with probability
//     ramping linearly from ~0 up to MaxPct%;
//   - q >= MaxDepth: always marked-or-dropped.
//
// An ECN-capable frame (Frame.ECN) is marked — CE set, still carried
// — so an ack-paced sender can back off without losing the frame;
// anything else is early-dropped. The coin flips come from the
// pipe's own seeded splitmix64 stream, so histories stay a pure
// function of the Config. The hard QueueDepth tail-drop bound still
// applies above all of this.
type REDSpec struct {
	// MinDepth and MaxDepth are the early-feedback thresholds in
	// queue slots; MinDepth must be < MaxDepth, and MaxDepth at most
	// the link's resolved QueueDepth.
	MinDepth, MaxDepth uint64
	// MaxPct is the mark/drop probability (percent, 1..100) reached
	// as the queue grows to MaxDepth.
	MaxPct uint64
	// Weight, when nonzero, replaces the instantaneous queue depth
	// with an EWMA estimate before the thresholds apply: every
	// offered frame folds its depth observation in as
	// avg += (q - avg) / 2^Weight (16.16 fixed point), so transient
	// bursts no longer trip early feedback while sustained congestion
	// still does — classic RED averaging. Zero keeps the
	// instantaneous depth, which replays pre-EWMA histories
	// bit-for-bit. Weight is capped at 16.
	Weight uint64
}

// validate checks a RED spec against its link's resolved queue depth.
func (r *REDSpec) validate(depth uint64) error {
	if r.MinDepth >= r.MaxDepth {
		return fmt.Errorf("RED MinDepth %d must be < MaxDepth %d", r.MinDepth, r.MaxDepth)
	}
	if r.MaxDepth > depth {
		return fmt.Errorf("RED MaxDepth %d exceeds queue depth %d", r.MaxDepth, depth)
	}
	if r.MaxPct == 0 || r.MaxPct > 100 {
		return fmt.Errorf("RED MaxPct %d must be in 1..100", r.MaxPct)
	}
	if r.Weight > 16 {
		return fmt.Errorf("RED Weight %d exceeds 16 (the average would adapt too slowly to ever gate)", r.Weight)
	}
	return nil
}

// RouteSpec installs one static forwarding-table entry: on machine
// On, frames addressed to machine Dst leave through On's link to the
// directly connected neighbor Via. Direct-neighbor entries are
// installed automatically from Links; RouteSpecs express the
// multi-hop paths behind routers.
type RouteSpec struct {
	On, Dst, Via int
}

// SharedSwapSpec declares that one machine (Host) physically owns the
// swap device that the Clients mount remotely: all their disks share
// one occupancy channel (I/O contends for the same spindle), and each
// client page I/O additionally bills the host — a NIC rx interrupt
// plus ServiceUs of swap-server work at the I/O's completion — to
// whichever task is then current there. This is the cross-machine
// exception-flood substrate: a memory hog on a neighbor machine
// pressures the shared swap while the victim is billed on the host.
//
// Swap request frames are injected into the host NIC directly rather
// than traversing a declared Link: they see no wire serialisation,
// queue drops, or sender-side tx billing. The shared device-occupancy
// channel is what gates swap throughput; a lossy swap transport would
// need request/retry semantics and is future work.
type SharedSwapSpec struct {
	Host    int
	Clients []int
	// ServiceUs is the host-side CPU service per remote page; zero
	// selects DefaultSwapServiceUs.
	ServiceUs uint64
}

// Config assembles a Cluster.
type Config struct {
	Machines []MachineSpec
	Links    []LinkSpec
	// Routes are static multi-hop routing-table entries on top of the
	// automatic direct-neighbor routes.
	Routes []RouteSpec
	// SharedSwap, when non-nil, couples machines' swap devices into
	// one physically shared device hosted by one machine.
	SharedSwap *SharedSwapSpec
}

// ErrStalled is returned by Run when unfinished machines remain but
// none can ever make progress: every remaining task is blocked on
// network input (NetRxWait, wait-forever) and no frame is in flight.
var ErrStalled = errors.New("cluster: unfinished machines but no machine has pending work")

// pipe is one direction's serialisation and queue state. Links
// declared with the same Bottleneck tag share one pipe for their
// forward directions. rng perturbs per-frame service time when the
// wire is the binding constraint (variable frame sizes); it is seeded
// from the cluster seed and the pipe's declaration position, so
// histories stay a pure function of the Config.
//
// A pipe runs one of two engines. FIFO (the default) is the virtual
// horizon model: lastArrival tracks the wire's committed tail and an
// offered frame either rides it or tail-drops — no frame is ever
// held back, so the sender learns carry/drop synchronously and
// histories replay the pre-qdisc model bit-for-bit. DRR holds a real
// per-flow backlog (drr non-nil): offered frames park in
// deficit-round-robin queues and depart as the wire serves them, one
// service-time event at a time, with the kick timer on the home
// member draining whatever the senders' own offers do not.
type pipe struct {
	gap   sim.Cycles // serialisation spacing per minimum-frame slot at wire capacity; 0 = infinite rate
	depth uint64     // queue bound in minimum-frame slots
	red   *REDSpec   // nil: pure tail-drop
	rng   *sim.Rand
	pipeRun

	// Flap schedule in cycles (flapDown 0: never down). flapPeriod 0
	// with flapDown armed means one outage window only.
	flapFirst  sim.Cycles
	flapDown   sim.Cycles
	flapPeriod sim.Cycles

	// DRR engine state (nil drr selects the FIFO horizon above).
	drr      *device.DRR
	quantum  uint64
	home     int     // member whose event queue runs the kick timer; armKick moves it off a down member
	byTag    []*Link // queued-entry tag -> owning link
	kickFire func()

	// id is the pipe's position in the cluster's wiring-order pipe
	// table — the restore tag stamped on its "pipe-service" events, so
	// a checkpoint restore can re-point a pending kick at the rebuilt
	// pipe's kickFire.
	id uint64
}

// pipeRun is the part of a pipe's state that a run moves; a checkpoint
// copies it as one value.
type pipeRun struct {
	lastArrival sim.Cycles // FIFO: the wire's committed tail
	avgFP       uint64     // EWMA queue estimate, 16.16 fixed point (RED Weight > 0)
	busyUntil   sim.Cycles // DRR: wire committed through here
	commitClock sim.Cycles // DRR: monotone max of observed offer/kick times
	kickArmed   bool
}

// svcBytes reports the serialisation time of wb wire bytes: the
// per-slot gap scaled by the frame's occupancy, so a minimum-size (or
// zero-Bytes) frame costs exactly one gap — the per-frame slot model,
// preserved bit-for-bit — and an MTU frame costs ~18 of them.
func (p *pipe) svcBytes(wb uint64) sim.Cycles {
	if wb == device.MinFrameBytes {
		return p.gap
	}
	return sim.Cycles(uint64(p.gap) * wb / device.MinFrameBytes)
}

// jitterSvc perturbs one frame's service time deterministically
// (variable header/framing overhead; also keeps a saturated pipe off
// an exact modular grid that could phase-lock with the receiver's
// timer ticks).
func (p *pipe) jitterSvc(svc sim.Cycles) sim.Cycles {
	g := p.rng.Jitter(svc, svc/4+1)
	if g == 0 {
		g = 1
	}
	return g
}

// redSample feeds one queue-depth observation (in slots) to the RED
// estimator and returns the depth the thresholds gate on: the
// instantaneous sample itself at Weight zero (bit-compatible with the
// pre-EWMA policy), otherwise the running EWMA.
func (p *pipe) redSample(q uint64) uint64 {
	r := p.red
	if r == nil || r.Weight == 0 {
		return q
	}
	qFP := q << 16
	if qFP >= p.avgFP {
		p.avgFP += (qFP - p.avgFP) >> r.Weight
	} else {
		p.avgFP -= (p.avgFP - qFP) >> r.Weight
	}
	return p.avgFP >> 16
}

// redHit decides whether a frame whose queue estimate is q takes
// early feedback, drawing from the pipe's deterministic stream only
// when the policy is armed and the estimate has reached MinDepth.
func (p *pipe) redHit(q uint64) bool {
	r := p.red
	if r == nil || q < r.MinDepth {
		return false
	}
	if q >= r.MaxDepth {
		return true
	}
	// Probability ramps linearly over [MinDepth, MaxDepth) up to
	// MaxPct%, evaluated in 1/65536 units with one draw per decision.
	prob := (q - r.MinDepth + 1) * r.MaxPct * 65536 / ((r.MaxDepth - r.MinDepth) * 100)
	return uint64(p.rng.Int63n(65536)) < prob
}

// applyFlap arms one direction's outage schedule, converting the
// spec's microsecond windows to cycles.
func (p *pipe) applyFlap(fs *FlapSpec, perUs sim.Cycles) {
	if fs == nil {
		return
	}
	p.flapFirst = sim.Cycles(fs.FirstDownUs) * perUs
	p.flapDown = sim.Cycles(fs.DownUs) * perUs
	if fs.UpUs > 0 {
		p.flapPeriod = p.flapDown + sim.Cycles(fs.UpUs)*perUs
	}
}

// flapDefer reports the first instant at or after t when the wire is
// up — t itself when no outage window covers it.
func (p *pipe) flapDefer(t sim.Cycles) sim.Cycles {
	if p.flapDown == 0 || t < p.flapFirst {
		return t
	}
	off := t - p.flapFirst
	if p.flapPeriod > 0 {
		off %= p.flapPeriod
	} else if off >= p.flapDown {
		return t
	}
	if off < p.flapDown {
		return t + (p.flapDown - off)
	}
	return t
}

// register adds a link to a DRR pipe's tag table so queued entries
// can be delivered and accounted on the link they were offered to.
func (p *pipe) register(l *Link) uint32 {
	p.byTag = append(p.byTag, l)
	return uint32(len(p.byTag) - 1)
}

// Link is one direction of a network path between two members' NICs,
// named by member index, so a reboot needs no re-pointing. Send is
// only safe from code that runs while the cluster advances the sending
// machine (guest routines, event callbacks) or between rounds — the
// same single-driver discipline every machine API has.
type Link struct {
	c        *Cluster
	from, to int // sending and receiving member
	latency  sim.Cycles
	pipe     *pipe
	rev      *Link
	tag      uint32 // this link's entry tag in a DRR pipe's table
	counts
}

// counts is one link direction's frame ledger; a checkpoint copies it
// as one value.
type counts struct {
	sent      uint64
	delivered uint64
	dropped   uint64
	queued    uint64
	marked    uint64
	earlyDrop uint64
}

// Sent reports frames offered to this direction since construction.
func (l *Link) Sent() uint64 { return l.sent }

// Delivered reports frames handed to the destination NIC's event
// queue. A frame still in flight when the destination machine halts
// is lost there; that window is bounded by one link latency.
func (l *Link) Delivered() uint64 { return l.delivered }

// Dropped reports frames not delivered: tail-dropped at the wire's
// queue, RED-early-dropped, shed by DRR's buffer-steal policy, or
// offered after the destination machine had finished.
func (l *Link) Dropped() uint64 { return l.dropped }

// Queued reports frames currently parked in a DRR pipe's backlog,
// accepted but not yet served by the wire (always zero on a FIFO
// direction, which commits every carried frame at offer time). At
// any instant Sent = Delivered + Dropped + Queued; a completed Run
// ends with Queued zero and the classic two-term identity.
func (l *Link) Queued() uint64 { return l.queued }

// Marked reports ECN-capable frames this direction carried with a
// fresh CE congestion mark from its RED policy.
func (l *Link) Marked() uint64 { return l.marked }

// EarlyDropped reports the subset of Dropped that RED discarded
// before the hard tail-drop bound (non-ECN frames under congestion).
func (l *Link) EarlyDropped() uint64 { return l.earlyDrop }

// Reverse returns the opposite direction of this link.
func (l *Link) Reverse() *Link { return l.rev }

// Send offers one addressed frame to this direction.
//
// On a FIFO pipe a carried frame arrives at the destination NIC one
// latency after the sender's current virtual time — no earlier than
// one byte-accurate serialisation time (the frame's wire bytes at
// the pipe's rate; one gap-slot for zero-Bytes frames) after the
// previous frame on the same pipe — and raises one receive interrupt
// there, parking the frame in the destination kernel's receive
// buffer. A frame that would queue QueueDepth or more gap-slots
// deep, or whose destination machine has already finished, is
// tail-dropped instead; with RED armed, a frame whose queue estimate
// (instantaneous, or EWMA with Weight set) passes MinDepth may take
// early feedback first — a CE mark if it is ECN-capable, an early
// drop otherwise. Sent = Delivered + Dropped always holds on FIFO.
//
// On a DRR pipe an accepted frame parks in its flow's queue and
// departs when the round-robin wire serves it, so Send reporting
// true means admitted, not yet delivered (Sent = Delivered + Dropped
// + Queued). Under buffer pressure the fattest flow's freshest
// backlog is shed to admit the newcomer — unless the newcomer's own
// flow is the hog, in which case it is the drop.
func (l *Link) Send(f Frame) bool {
	l.sent++
	if l.c.members[l.to].m.Closed() {
		l.dropped++
		return false
	}
	if l.pipe.drr != nil {
		return l.pipe.sendDRR(l, f)
	}
	now := l.c.members[l.from].m.Clock().Now()
	if l.pipe.flapDefer(now) > now {
		// The wire is in a flap-down window: a FIFO direction has no
		// backlog to hold the frame in, so the offer is a loss.
		l.dropped++
		return false
	}
	arrive := now + l.latency
	if p := l.pipe; p.gap > 0 {
		svc := p.svcBytes(device.WireBytes(f))
		if floor := p.lastArrival + svc; arrive < floor {
			queued := uint64((floor - arrive) / p.gap)
			if queued >= p.depth || !l.redAdmit(queued, &f) {
				l.dropped++
				return false
			}
			// The wire is the binding constraint: per-frame service
			// time varies with frame size, so perturb the nominal
			// service time (deterministically). Without this a
			// saturated pipe delivers on an exact modular grid that
			// can phase-lock with the receiver's timer-tick grid and
			// bias what the tick sampler observes. Frames never
			// arrive before their own flight time or out of order.
			if jittered := p.lastArrival + p.jitterSvc(svc); jittered > arrive {
				arrive = jittered
			}
		} else {
			// Uncongested offer: the EWMA estimator still observes the
			// empty queue so the average decays between bursts.
			p.redSample(0)
		}
		p.lastArrival = arrive
	}
	return l.land(arrive, f)
}

// redAdmit runs the RED policy on a frame offered behind queued
// minimum-frame slots: the estimator observes the depth and, on early
// feedback, an ECN-capable frame is CE-marked and admitted while any
// other frame is refused as an early drop. The caller counts the
// refused frame as dropped, so every Send path closes its own ledger.
func (l *Link) redAdmit(queued uint64, f *Frame) bool {
	p := l.pipe
	if !p.redHit(p.redSample(queued)) {
		return true
	}
	if !f.ECN {
		l.earlyDrop++
		return false
	}
	if !f.CE {
		l.marked++
	}
	f.CE = true
	return true
}

// land hands a wire-committed frame to the destination NIC at its
// arrival time — or counts a drop when the destination machine has
// finished, or when the frame would arrive at or after the
// destination's pending crash: it occupied the wire but lands on a
// dead machine, so the sender learns synchronously and the ledger
// holds through the crash.
func (l *Link) land(arrive sim.Cycles, f Frame) bool {
	to := &l.c.members[l.to]
	if to.m.Closed() || (to.crashAt > 0 && arrive >= to.crashAt) {
		l.dropped++
		return false
	}
	l.delivered++
	to.m.NIC().InjectRxFrame(arrive, f)
	return true
}

// sendDRR offers one frame to a DRR pipe at the sending machine's
// current virtual time. Like the Bottleneck sharing model, offers
// reach the pipe in lockstep machine order rather than strict
// virtual-time order, so the commit clock is the monotone maximum of
// observed offer times and a frame offered "in the past" (bounded by
// one lookahead window) queues as if it arrived at the frontier.
func (p *pipe) sendDRR(l *Link, f Frame) bool {
	now := l.c.members[l.from].m.Clock().Now()
	if now > p.commitClock {
		p.commitClock = now
	}
	p.drain()
	wb := device.WireBytes(f)
	if p.drr.Len() == 0 && p.busyUntil <= p.commitClock {
		start := max(p.busyUntil, now)
		if p.flapDefer(start) == start {
			// Wire idle and up: store-and-forward the frame
			// immediately. The EWMA estimator still observes the empty
			// queue (as the FIFO path does) so the average decays
			// between bursts.
			p.redSample(0)
			p.busyUntil = start + p.jitterSvc(p.svcBytes(wb))
			l.land(p.busyUntil+l.latency, f)
			return true
		}
		// Flap-down window: park the frame in the backlog. The wire
		// is committed through the offer, so drain and the kick serve
		// it from the window's end, not from a horizon the idle wire
		// left behind.
		p.busyUntil = start
	}
	// Wire busy: admit under the buffer policy. Capacity is QueueDepth
	// minimum-frame slots' worth of bytes; under pressure the fattest
	// flow sheds its freshest backlog until the newcomer fits.
	capBytes := p.depth * device.MinFrameBytes
	for p.drr.Bytes()+wb > capBytes {
		hog, ok := p.drr.LongestFlow()
		if !ok || hog == f.Flow {
			l.dropped++
			return false
		}
		e, _ := p.drr.StealFrom(hog)
		el := p.byTag[e.Tag]
		el.queued--
		el.dropped++
	}
	// RED gates on the backlog ahead of the newcomer, in slots.
	if !l.redAdmit(p.drr.Bytes()/device.MinFrameBytes, &f) {
		l.dropped++
		return false
	}
	p.drr.Enqueue(device.QdiscEntry{F: f, Cost: wb, Tag: l.tag})
	l.queued++
	l.c.armKick(p)
	return true
}

// drain commits backlogged frames onto the wire in DRR order for as
// long as the committed horizon trails the commit clock: each
// committed frame occupies the wire for its jittered byte-accurate
// service time and is delivered on its own link at departure.
func (p *pipe) drain() {
	for p.drr.Len() > 0 {
		// A flap-down window suspends service: the committed horizon
		// jumps to the window's end and the backlog waits there.
		if up := p.flapDefer(p.busyUntil); up > p.busyUntil {
			p.busyUntil = up
		}
		if p.busyUntil > p.commitClock {
			return
		}
		e, _ := p.drr.Dequeue()
		el := p.byTag[e.Tag]
		el.queued--
		p.busyUntil += p.jitterSvc(p.svcBytes(e.Cost))
		el.land(p.busyUntil+el.latency, e.F)
	}
}

// armKick schedules a DRR pipe's service timer at the wire's
// committed horizon on its home member (the first declared link's
// receiver; once that member is down, the first live member), so
// backlog keeps draining — one frame per firing — after the senders
// go quiet. Without it, queued frames would wait for the next offer
// that may never come.
func (c *Cluster) armKick(p *pipe) {
	if p.kickArmed || p.drr.Len() == 0 {
		return
	}
	if c.members[p.home].done {
		for j := range c.members {
			if !c.members[j].done {
				p.home = j
				break
			}
		}
	}
	p.kickArmed = true
	// A flap-down window pushes the kick to the window's end: the
	// timer is what revives a parked backlog once senders go quiet.
	c.members[p.home].m.NIC().ScheduleEgressTagged(p.flapDefer(p.busyUntil), p.id, p.kickFire)
}

// Cluster is a set of machines advancing in lockstep plus the links
// between them. It alone knows how the fabric is wired: links and
// pipe homes name members by index, and each member's forwarding
// table maps destination addresses to the link direction a frame
// leaves on. A member's NIC holds only its address and a transmit
// function into that table, which plug sets on every incarnation.
type Cluster struct {
	// members holds each member's run state; its name, service flag
	// and spec are cfg.Machines[i].
	members   []member
	links     []*Link
	lookahead sim.Cycles
	maxCycles sim.Cycles

	// Checkpoint support. cfg keeps the whole declaration (a restore
	// rebuilds the wiring from it); pipes is every distinct pipe in
	// wiring order, indexed by pipe.id.
	cfg   Config
	pipes []*pipe
}

// member is one cluster member's run state.
type member struct {
	m     *kernel.Machine   // the current incarnation
	prior []*kernel.Machine // retired incarnations, oldest first
	// fwd is the member's forwarding table, built once by wire from
	// Links and Routes and fixed from then on.
	fwd     map[Addr]*Link
	done    bool
	crashed bool
	// The pending crash and reboot (zero: none). crashAt starts as the
	// spec's CrashAt and clears when the crash fires or the member
	// finishes first.
	crashAt   sim.Cycles
	restartAt sim.Cycles
}

// newPipe builds one direction's serialisation state from a spec.
// seed drives the pipe's service-time perturbation and RED coin
// flips; qdisc/quantum select the queue engine, and home is the
// member whose event queue runs a DRR pipe's service timer.
func (c *Cluster) newPipe(freq sim.Hz, pps, depth uint64, red *REDSpec, seed int64, qdisc string, quantum uint64, home int) *pipe {
	if pps == 0 {
		pps = DefaultLinkPPS
	}
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	var gap sim.Cycles
	if pps != UnlimitedPPS {
		gap = sim.Cycles(uint64(freq) / pps)
		if gap == 0 {
			gap = 1
		}
	}
	p := &pipe{gap: gap, depth: depth, red: red, rng: sim.NewRand(seed)}
	if qdisc == QdiscDRR {
		if quantum == 0 {
			quantum = DefaultQuantumBytes
		}
		p.drr = device.NewDRR(quantum)
		p.quantum = quantum
		p.home = home
		p.kickFire = func() {
			p.kickArmed = false
			if now := c.members[p.home].m.Clock().Now(); now > p.commitClock {
				p.commitClock = now
			}
			p.drain()
			c.armKick(p)
		}
	}
	return p
}

// member returns member i's record. what names the calling accessor
// in the descriptive panic an out-of-range index gets.
func (c *Cluster) member(i int, what string) *member {
	if i < 0 || i >= len(c.members) {
		panic(fmt.Sprintf("cluster: %s(%d) out of range: cluster has %d machines (0..%d)", what, i, len(c.members), len(c.members)-1))
	}
	return &c.members[i]
}

// AddrOf reports machine i's fabric address (machine i is addressed
// i+1; zero is reserved).
func (c *Cluster) AddrOf(i int) Addr {
	c.member(i, "AddrOf")
	return Addr(i + 1)
}

// machineDesc names machine i for error messages.
func (c *Cluster) machineDesc(i int) string {
	if name := c.cfg.Machines[i].Name; name != "" {
		return fmt.Sprintf("machine %d (%s)", i, name)
	}
	return fmt.Sprintf("machine %d", i)
}

// shellFrom validates a Config and wires it into a Cluster shell: one
// record per member, the links, pipes, forwarding tables and routes,
// and the checked shared-swap declaration, but no machines. New fills
// the members with fresh kernels, Restore with kernels restored from a
// checkpoint image, so a refused Config leaves nothing to shut down.
// perUs is the cluster timebase's cycles per microsecond.
func shellFrom(cfg Config) (c *Cluster, perUs sim.Cycles, err error) {
	if len(cfg.Machines) == 0 {
		return nil, 0, fmt.Errorf("cluster: no machines")
	}
	// The image-reuse path keeps a ClusterImage alive across restores,
	// so the shell's view of the declaration must not alias caller
	// slices that might be mutated between runs.
	cfg.Machines = append([]MachineSpec(nil), cfg.Machines...)
	cfg.Links = append([]LinkSpec(nil), cfg.Links...)
	cfg.Routes = append([]RouteSpec(nil), cfg.Routes...)
	c = &Cluster{members: make([]member, len(cfg.Machines)), cfg: cfg}
	freq := cfg.Machines[0].Config.CPUHz
	if freq == 0 {
		freq = sim.DefaultCPUHz
	}
	c.maxCycles = sim.Cycles(freq) * 3600 // one virtual hour: a runaway guard
	seenNames := make(map[string]int)
	for i, ms := range cfg.Machines {
		f := ms.Config.CPUHz
		if f == 0 {
			f = sim.DefaultCPUHz
		}
		if f != freq {
			return nil, 0, fmt.Errorf("cluster: machine %d runs at %d Hz, machine 0 at %d Hz (one timebase required)", i, f, freq)
		}
		if ms.Name != "" {
			if prev, dup := seenNames[ms.Name]; dup {
				return nil, 0, fmt.Errorf("cluster: machines %d and %d both named %q (names must be unique)", prev, i, ms.Name)
			}
			seenNames[ms.Name] = i
		}
		if ms.RestartAfter > 0 && ms.CrashAt == 0 {
			return nil, 0, fmt.Errorf("cluster: machine %d sets RestartAfter without CrashAt (nothing to restart)", i)
		}
		if ms.CrashAt > 0 && cfg.SharedSwap != nil {
			return nil, 0, fmt.Errorf("cluster: machine %d arms CrashAt under a shared swap device (crash/restart does not compose with cross-machine swap billing)", i)
		}
		if err := ms.Config.Validate(); err != nil {
			return nil, 0, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		c.members[i] = member{fwd: make(map[Addr]*Link), crashAt: ms.CrashAt}
	}
	perUs = sim.Cycles(uint64(freq) / 1_000_000)
	if perUs == 0 {
		perUs = 1
	}
	if err := c.wire(freq, perUs); err != nil {
		return nil, 0, err
	}
	return c, perUs, nil
}

// New wires the declaration, builds each member's machine and plugs it
// in, couples any shared swap, and runs every Boot routine. A refused
// Config builds no machine; a failed Boot shuts the built ones down.
func New(cfg Config) (*Cluster, error) {
	c, perUs, err := shellFrom(cfg)
	if err != nil {
		return nil, err
	}
	for i, ms := range c.cfg.Machines {
		c.plug(i, kernel.New(ms.Config))
	}
	c.couple(perUs, false)
	for i, ms := range c.cfg.Machines {
		if ms.Boot == nil {
			continue
		}
		if err := ms.Boot(c, c.members[i].m); err != nil {
			c.Shutdown()
			return nil, fmt.Errorf("cluster: boot machine %d: %w", i, err)
		}
	}
	return c, nil
}

// wire builds every link, pipe, and forwarding table from the stored
// Config, installs the routes, computes the lookahead, and checks any
// shared swap declaration. It touches no machine, so New and the
// checkpoint Restore run it before they build or restore any. Each
// member's table maps a neighbor's address to the first link that
// reaches it, plus one entry per static route.
func (c *Cluster) wire(freq sim.Hz, perUs sim.Cycles) error {
	cfg := c.cfg
	n := len(c.members)
	shared := make(map[string]*pipe)
	// Every distinct pipe is registered in wiring order; its position
	// is its checkpoint identity (pipe.id), the restore tag its
	// "pipe-service" kick events carry. Bottleneck-shared pipes are
	// registered once, at their first declaring link.
	seenPipes := make(map[*pipe]bool)
	addPipe := func(p *pipe) {
		if seenPipes[p] {
			return
		}
		seenPipes[p] = true
		p.id = uint64(len(c.pipes))
		c.pipes = append(c.pipes, p)
	}
	for li, ls := range cfg.Links {
		if ls.From < 0 || ls.From >= n || ls.To < 0 || ls.To >= n {
			return fmt.Errorf("cluster: link %d connects %d->%d, but machine indices range over 0..%d", li, ls.From, ls.To, n-1)
		}
		if ls.From == ls.To {
			return fmt.Errorf("cluster: link %d is a self-link on %s (loopback is not a wire)", li, c.machineDesc(ls.From))
		}
		qdisc := ls.Qdisc
		switch qdisc {
		case "":
			qdisc = QdiscFIFO
		case QdiscFIFO, QdiscDRR:
		default:
			return fmt.Errorf("cluster: link %d selects unknown qdisc %q (have %q, %q)", li, ls.Qdisc, QdiscFIFO, QdiscDRR)
		}
		if qdisc != QdiscDRR && ls.QuantumBytes != 0 {
			return fmt.Errorf("cluster: link %d sets QuantumBytes %d without Qdisc %q (FIFO has no per-flow quantum)", li, ls.QuantumBytes, QdiscDRR)
		}
		if qdisc == QdiscDRR && ls.PacketsPerSecond == UnlimitedPPS {
			return fmt.Errorf("cluster: link %d arms qdisc %q on an infinite-rate wire (no queue to schedule)", li, QdiscDRR)
		}
		if (ls.Flap != nil || ls.RevFlap != nil) && ls.Bottleneck != "" {
			return fmt.Errorf("cluster: link %d arms flap windows on bottleneck %q (a shared pipe cannot take per-link outages)", li, ls.Bottleneck)
		}
		for _, fs := range []*FlapSpec{ls.Flap, ls.RevFlap} {
			if fs != nil && fs.DownUs == 0 {
				return fmt.Errorf("cluster: link %d flap window has DownUs 0 (an outage must have a length)", li)
			}
		}
		latUs := ls.LatencyUs
		if latUs == 0 {
			latUs = DefaultLatencyUs
		}
		pipeSeed := cfg.Machines[0].Config.Seed*1_000_003 + int64(li)*2
		fwdPipe := c.newPipe(freq, ls.PacketsPerSecond, ls.QueueDepth, ls.RED, pipeSeed, qdisc, ls.QuantumBytes, ls.To)
		if ls.RED != nil {
			if err := ls.RED.validate(fwdPipe.depth); err != nil {
				return fmt.Errorf("cluster: link %d: %w", li, err)
			}
		}
		if ls.Bottleneck != "" {
			if b, ok := shared[ls.Bottleneck]; ok {
				// Compare resolved parameters, so an explicit value and
				// the default it resolves to are not a false mismatch.
				if b.gap != fwdPipe.gap || b.depth != fwdPipe.depth || !redEqual(b.red, fwdPipe.red) ||
					(b.drr != nil) != (fwdPipe.drr != nil) || b.quantum != fwdPipe.quantum {
					return fmt.Errorf("cluster: link %d bottleneck %q resolves to gap=%d depth=%d red=%v drr=%v quantum=%d, earlier link resolved gap=%d depth=%d red=%v drr=%v quantum=%d",
						li, ls.Bottleneck, fwdPipe.gap, fwdPipe.depth, fwdPipe.red, fwdPipe.drr != nil, fwdPipe.quantum,
						b.gap, b.depth, b.red, b.drr != nil, b.quantum)
				}
				fwdPipe = b
			} else {
				shared[ls.Bottleneck] = fwdPipe
			}
		}
		fwd := &Link{
			c:       c,
			from:    ls.From,
			to:      ls.To,
			latency: sim.Cycles(latUs) * perUs,
			pipe:    fwdPipe,
		}
		rev := &Link{
			c:       c,
			from:    ls.To,
			to:      ls.From,
			latency: fwd.latency,
			pipe:    c.newPipe(freq, ls.PacketsPerSecond, ls.QueueDepth, ls.RED, pipeSeed+1, qdisc, ls.QuantumBytes, ls.From),
		}
		fwd.rev, rev.rev = rev, fwd
		fwd.pipe.applyFlap(ls.Flap, perUs)
		rev.pipe.applyFlap(ls.RevFlap, perUs)
		addPipe(fwdPipe)
		addPipe(rev.pipe)
		if fwdPipe.drr != nil {
			fwd.tag = fwdPipe.register(fwd)
		}
		if rev.pipe.drr != nil {
			rev.tag = rev.pipe.register(rev)
		}
		for _, d := range [2]*Link{fwd, rev} {
			if _, ok := c.members[d.from].fwd[c.AddrOf(d.to)]; !ok {
				c.members[d.from].fwd[c.AddrOf(d.to)] = d
			}
		}
		c.links = append(c.links, fwd)
	}
	for ri, rs := range cfg.Routes {
		if err := c.installRoute(rs); err != nil {
			return fmt.Errorf("cluster: route %d: %w", ri, err)
		}
	}
	// The lookahead is the shortest cross-machine signal flight time:
	// one round may only span a window narrower than it. With no
	// links, machines are independent; a tick-sized window keeps
	// rounds cheap without any correctness constraint.
	c.lookahead = 0
	for _, l := range c.links {
		if c.lookahead == 0 || l.latency < c.lookahead {
			c.lookahead = l.latency
		}
	}
	if c.lookahead == 0 {
		c.lookahead = sim.Cycles(uint64(freq) / kernel.DefaultHZ)
	}
	if ss := cfg.SharedSwap; ss != nil {
		if ss.Host < 0 || ss.Host >= n {
			return fmt.Errorf("cluster: shared swap host %d out of range (%d machines)", ss.Host, n)
		}
		if len(ss.Clients) == 0 {
			return fmt.Errorf("cluster: shared swap declares no clients")
		}
		seen := map[int]bool{ss.Host: true}
		for _, ci := range ss.Clients {
			if ci < 0 || ci >= n {
				return fmt.Errorf("cluster: shared swap client %d out of range (%d machines)", ci, n)
			}
			if seen[ci] {
				return fmt.Errorf("cluster: shared swap lists machine %d twice", ci)
			}
			seen[ci] = true
		}
		// Swap notifications fly one disk latency ahead at minimum; keep
		// the lockstep window comfortably inside that horizon.
		if dl := mem.DiskLatency(freq) / 2; c.lookahead > dl && dl > 0 {
			c.lookahead = dl
		}
	}
	return nil
}

// plug connects machine m as member i's current incarnation: its NIC
// takes the member's fabric address and a transmit function that sends
// each frame on the link direction the member's forwarding table maps
// its destination to (no entry: the NIC counts a drop). New, Restore
// and a reboot all plug a machine in this way.
func (c *Cluster) plug(i int, m *kernel.Machine) {
	tab := c.members[i].fwd
	c.members[i].m = m
	m.NIC().SetAddr(c.AddrOf(i))
	m.NIC().SetTx(func(f Frame) bool {
		l, ok := tab[f.Dst]
		return ok && l.Send(f)
	})
}

// redEqual compares two RED resolutions for bottleneck agreement.
func redEqual(a, b *REDSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// installRoute validates one static route and writes the forwarding-
// table entry on its machine. Via must be a neighbor: the table's
// entry for Via's address is then the first link that reaches it.
func (c *Cluster) installRoute(rs RouteSpec) error {
	n := len(c.members)
	if rs.On < 0 || rs.On >= n || rs.Dst < 0 || rs.Dst >= n || rs.Via < 0 || rs.Via >= n {
		return fmt.Errorf("{On:%d Dst:%d Via:%d} references machines outside 0..%d", rs.On, rs.Dst, rs.Via, n-1)
	}
	if rs.Dst == rs.On {
		return fmt.Errorf("%s routes to itself", c.machineDesc(rs.On))
	}
	tab := c.members[rs.On].fwd
	l, ok := tab[c.AddrOf(rs.Via)]
	if !ok || l.to != rs.Via {
		return fmt.Errorf("%s has no link to via-%s", c.machineDesc(rs.On), c.machineDesc(rs.Via))
	}
	if existing, ok := tab[c.AddrOf(rs.Dst)]; ok && existing != l {
		return fmt.Errorf("%s already routes to %s via a different next hop", c.machineDesc(rs.On), c.machineDesc(rs.Dst))
	}
	tab[c.AddrOf(rs.Dst)] = l
	return nil
}

// couple joins the machines of a declared (and by wire checked) shared
// swap: the clients' disks share one occupancy channel with the host's,
// and each client's OnIO hook books its I/O in the host's remote I/O
// backlog (kernel.Machine.RemoteIO), which bills the host. On the
// checkpoint-restore path (restored true) the host's disk already
// carries the shared channel's horizons from the image (every sharer
// held the same channel, so the host's clone is authoritative), and
// the host's image carries its backlog; the clients are re-pointed at
// the channel instead of a fresh idle one.
func (c *Cluster) couple(perUs sim.Cycles, restored bool) {
	ss := c.cfg.SharedSwap
	if ss == nil {
		return
	}
	host := c.members[ss.Host].m
	ch := host.Disk().Channel()
	if !restored {
		ch = device.NewDiskChannel()
		host.Disk().Share(ch)
	}
	svcUs := ss.ServiceUs
	if svcUs == 0 {
		svcUs = DefaultSwapServiceUs
	}
	host.ServeRemoteIO(sim.Cycles(svcUs) * perUs)
	for _, ci := range ss.Clients {
		cm := c.members[ci].m
		cm.Disk().Share(ch)
		// The request frame's rx interrupt plus the swap server's
		// block-layer/copy/reply work land on the host at the I/O's
		// completion, billed to whichever task is current.
		// (Modeling simplification: swap request frames are injected
		// directly rather than traversing a Link, so they see no wire
		// serialisation, queue drops, or sender-side tx billing — the
		// device-occupancy channel is what gates swap throughput.)
		cm.Disk().OnIO(host.RemoteIO)
	}
}

// Size reports the number of machines.
func (c *Cluster) Size() int { return len(c.members) }

// Machine returns cluster member i. It panics with a descriptive
// message on an out-of-range index.
func (c *Cluster) Machine(i int) *kernel.Machine { return c.member(i, "Machine").m }

// Name reports machine i's declared name ("" if unnamed).
func (c *Cluster) Name(i int) string {
	c.member(i, "Name")
	return c.cfg.Machines[i].Name
}

// Link returns the forward direction of the i-th declared link. It
// panics with a descriptive message on an out-of-range index.
func (c *Cluster) Link(i int) *Link {
	if i < 0 || i >= len(c.links) {
		panic(fmt.Sprintf("cluster: Link(%d) out of range: cluster declares %d links (0..%d)", i, len(c.links), len(c.links)-1))
	}
	return c.links[i]
}

// Links reports the number of declared links.
func (c *Cluster) Links() int { return len(c.links) }

// Done reports whether machine i has finished (every task exited).
func (c *Cluster) Done(i int) bool { return c.member(i, "Done").done }

// Now reports the earliest virtual time any machine still has to
// simulate — the cluster's lockstep frontier. With every machine
// finished it reports the latest machine clock instead.
func (c *Cluster) Now() sim.Cycles {
	var frontier sim.Cycles
	first := true
	for i := range c.members {
		if mb := &c.members[i]; !mb.done {
			if t := mb.m.Clock().Now(); first || t < frontier {
				frontier, first = t, false
			}
		}
	}
	if first {
		for i := range c.members {
			if t := c.members[i].m.Clock().Now(); t > frontier {
				frontier = t
			}
		}
	}
	return frontier
}

// Run advances all machines in lockstep rounds until every machine's
// tasks have exited. On error (including a machine failure, and the
// ErrStalled case where every unfinished machine is blocked on
// network input with nothing in flight) the whole cluster is shut
// down.
func (c *Cluster) Run() error {
	for {
		st, err := c.round(0)
		if err != nil {
			return err
		}
		if st == roundAllDone {
			return nil
		}
	}
}

// RunUntil advances lockstep rounds until every machine has finished
// (returning true) or the cluster's next round would start at or past
// the virtual-time barrier `stop` (returning false). At a false
// return every machine stands quiesced at a common round boundary at
// or after stop — the state Snapshot captures — and a subsequent Run
// or RunUntil continues the same history the restored image replays.
//
// Slicing a run with RunUntil clamps round windows to the barrier, so
// the round structure — and therefore the exact interleaving of
// cross-machine event insertion — can differ from an unsliced Run of
// the same Config. A cluster history is a pure function of (Config,
// the sequence of barriers it was advanced through); two runs that
// share a prefix of barriers share that prefix of history.
func (c *Cluster) RunUntil(stop sim.Cycles) (bool, error) {
	for {
		st, err := c.round(stop)
		if err != nil {
			return false, err
		}
		switch st {
		case roundAllDone:
			return true, nil
		case roundPaused:
			return false, nil
		}
	}
}

// round outcomes.
const (
	roundRan     = iota // one lockstep round executed
	roundAllDone        // every machine has finished
	roundPaused         // stop barrier reached before the round ran
)

// round executes one lockstep round. With stop nonzero the round is
// clamped to the barrier: a round whose base has reached stop does
// not run (roundPaused), and a round spanning it ends exactly there.
// A window narrower than the lookahead is always safe — the lookahead
// is an upper bound on how far a round may reach, not a lower one.
func (c *Cluster) round(stop sim.Cycles) (int, error) {
	// The barrier base: the earliest time any unfinished machine can
	// make progress on its own. A pending crash is scheduled work even
	// when the machine is blocked on network input — it must die on
	// time whether or not it would ever have run again — and a crashed
	// machine with a reboot pending has that reboot as its next work.
	// Without either clause a scheduled failure on the barrier's min
	// machine would wedge Run.
	var tmin sim.Cycles
	haveWork, allDone := false, true
	for i := range c.members {
		mb := &c.members[i]
		if mb.done {
			if at := mb.restartAt; at > 0 {
				allDone = false
				if !haveWork || at < tmin {
					tmin = at
				}
				haveWork = true
			}
			continue
		}
		allDone = false
		at, ok := mb.m.NextWorkAt()
		switch now := mb.m.Clock().Now(); {
		case ok && at < now && stop > 0 && now >= stop:
			// Work due in the past of a machine that already stands at
			// the stop barrier runs only in a round past it: it counts
			// as work at the machine's clock, so the cluster pauses
			// instead of running rounds clamped to a barrier the
			// machine has passed, which run nothing, forever.
			at = now
		case ok && at+c.lookahead <= now:
			// Work due a lookahead or more in the machine's past (a
			// kick timer armed behind a home that overran its round)
			// would give a round whose target the machine has already
			// passed, which runs nothing, forever. Move the base up
			// just enough that the round runs it.
			at = now + 1 - c.lookahead
		}
		if ca := mb.crashAt; ca > 0 && (!ok || ca < at) {
			at, ok = ca, true
		}
		if !ok {
			continue // waiting for network input
		}
		if !haveWork || at < tmin {
			tmin = at
		}
		haveWork = true
	}
	if allDone {
		return roundAllDone, nil
	}
	if !haveWork {
		// Every unfinished machine is blocked on network input with
		// nothing in flight. If all of them are service machines
		// (daemons that wait for traffic forever), the fabric has
		// quiesced: retire them and complete. Anything else is a
		// genuine stall.
		for i := range c.members {
			if !c.members[i].done && !c.cfg.Machines[i].Service {
				c.Shutdown()
				return 0, ErrStalled
			}
		}
		for i := range c.members {
			if mb := &c.members[i]; !mb.done {
				mb.m.Shutdown()
				mb.done = true
			}
		}
		return roundAllDone, nil
	}
	if stop > 0 && tmin >= stop {
		return roundPaused, nil
	}
	target := tmin + c.lookahead
	if stop > 0 && target > stop {
		target = stop
	}
	if target > c.maxCycles {
		c.Shutdown()
		return 0, fmt.Errorf("cluster: exceeded %d virtual cycles (runaway scenario?)", c.maxCycles)
	}
	// Reboot any crashed machine whose restart instant this round
	// reaches, before the round runs: the fresh incarnation then
	// advances with everyone else.
	for i := range c.members {
		if at := c.members[i].restartAt; at > 0 && at <= target {
			if err := c.restart(i, at); err != nil {
				c.Shutdown()
				return 0, err
			}
		}
	}
	// Fixed machine order per round keeps cross-machine event
	// insertion — and therefore the whole history — deterministic.
	for i := range c.members {
		mb := &c.members[i]
		if mb.done {
			continue
		}
		limit := target
		if ca := mb.crashAt; ca > 0 && ca < limit {
			limit = ca
		}
		done, err := mb.m.RunUntil(limit)
		if err != nil {
			c.Shutdown()
			return 0, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		mb.done = done
		if done {
			// Finished naturally ahead of any scheduled crash:
			// nothing left to kill.
			mb.crashAt = 0
			c.down(i, mb.m.Clock().Now())
			continue
		}
		if ca := mb.crashAt; ca > 0 && ca <= limit {
			c.crash(i)
		}
	}
	return roundRan, nil
}

// crash takes machine i's scheduled failure: the machine is torn down
// mid-run — in-flight guests unwound, pending events (kick timers
// included) dead — and any configured reboot is armed. Frames heading
// toward it were already written off at the wire, where land checks
// the pending crash, so Sent = Delivered + Dropped + Queued holds
// through the failure.
func (c *Cluster) crash(i int) {
	mb := &c.members[i]
	at := mb.crashAt
	mb.m.Shutdown()
	mb.done, mb.crashed = true, true
	if ra := c.cfg.Machines[i].RestartAfter; ra > 0 {
		mb.restartAt = at + ra
	}
	mb.crashAt = 0
	c.down(i, at)
}

// down settles the DRR pipes when member i crashes or finishes at
// virtual time at. Backlog for a link into i can never be delivered
// (and serving it after a reboot would deliver stale traffic into a
// fresh machine), so it becomes counted drops on the link that
// offered it. A pipe whose kick timer died with i re-arms it, which
// puts it on the first live member; nobody served its backlog past
// at, so the committed horizon resumes no earlier than that. Every
// queued frame then has a live destination and a live timer, and a
// completed Run ends with Queued zero on every direction.
func (c *Cluster) down(i int, at sim.Cycles) {
	// c.pipes holds each pipe once, in wiring order, so a Bottleneck
	// pipe shared by several links is settled exactly once.
	for _, p := range c.pipes {
		if p.drr == nil {
			continue
		}
		p.drr.Expire(
			func(e device.QdiscEntry) bool { return p.byTag[e.Tag].to == i },
			func(e device.QdiscEntry) {
				el := p.byTag[e.Tag]
				el.queued--
				el.dropped++
			})
		if p.home == i {
			p.kickArmed = false
			if p.drr.Len() > 0 {
				p.busyUntil = max(p.busyUntil, at)
				c.armKick(p)
			}
		}
	}
}

// restart boots a fresh incarnation of crashed machine i at virtual
// time at: a new kernel.Machine from the original spec, its clock
// fast-forwarded to the reboot instant via Config.BootAt (first timer
// tick one jiffy later), plugged in as member i like the original.
// The crash already expired the backlog addressed to the dead
// incarnation and handed its kick timers on (down), so the fresh
// machine takes new traffic only. Task state is fresh (the spec's
// Boot runs again); ledgers are per-incarnation, so cumulative
// accounting sums over Incarnations.
func (c *Cluster) restart(i int, at sim.Cycles) error {
	mb, ms := &c.members[i], c.cfg.Machines[i]
	mb.prior = append(mb.prior, mb.m)
	mcfg := ms.Config
	mcfg.BootAt = at
	c.plug(i, kernel.New(mcfg))
	mb.done, mb.restartAt = false, 0
	if ms.Boot != nil {
		if err := ms.Boot(c, mb.m); err != nil {
			return fmt.Errorf("cluster: reboot machine %d at cycle %d: %w", i, at, err)
		}
	}
	return nil
}

// Crashed reports whether machine i took its scheduled crash. It
// stays true across a restart — the current incarnation is a reboot.
func (c *Cluster) Crashed(i int) bool { return c.member(i, "Crashed").crashed }

// Incarnations returns every kernel machine that has served as member
// i: retired incarnations oldest-first, the current one last (a
// machine that never crashed has exactly one). A ledger that must
// survive a crash — a billing scheme's cumulative charge, an
// interrupt count — is the sum over incarnations.
func (c *Cluster) Incarnations(i int) []*kernel.Machine {
	mb := c.member(i, "Incarnations")
	out := make([]*kernel.Machine, 0, len(mb.prior)+1)
	out = append(out, mb.prior...)
	return append(out, mb.m)
}

// Shutdown stops every machine's guest coroutines. Run calls it on
// failure; callers abandoning a cluster early must call it to avoid
// leaking suspended Body guests. It is idempotent.
func (c *Cluster) Shutdown() {
	for i := range c.members {
		if m := c.members[i].m; m != nil {
			m.Shutdown()
		}
	}
}
