// Chaos flood: the routed-flood scenario of routerflood.go run under
// injected infrastructure faults — seeded syscall error injection on
// every machine, a scheduled mid-flood crash (and optional reboot) of
// the router, and outage windows flapping the victim's egress wire.
// The artifact's question is billing *integrity*: when the fabric
// itself misbehaves, does every accounting scheme's ledger still
// balance? Per-link conservation (Sent = Delivered + Dropped +
// Queued) must hold through the crash, per-machine bills must stay
// monotone across incarnations, and with every fault probability
// zero the scenario must replay the healthy history bit-for-bit.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
)

// ChaosSpec is the fault-injection overlay on a routed-flood
// scenario. The zero value injects nothing and schedules nothing.
type ChaosSpec struct {
	// FaultPPM is each configured syscall's injection probability in
	// parts per million (0..kernel.PPMScale), applied on every
	// machine from its own seeded stream; zero injects nothing.
	FaultPPM uint32
	// FaultSyscalls lists the syscalls that take injection; empty
	// selects ["sendto", "read"] — the fabric-facing pair.
	FaultSyscalls []string
	// FaultErrno names the injected errno: "eagain" (default,
	// transient — guests retry), "enomem" (transient), or "eio"
	// (hard — guests give up at once).
	FaultErrno string
	// RouterCrashSec, when nonzero, kills the router machine that
	// many virtual seconds into the run.
	RouterCrashSec float64
	// RouterRestartSec, when nonzero, reboots the router that many
	// virtual seconds after the crash with fresh task state (the
	// forwarding daemon is respawned; its pre-crash bill survives
	// only in the retired incarnation's ledger). Requires
	// RouterCrashSec.
	RouterRestartSec float64
	// VictimFlap, when non-nil, arms outage windows on the
	// router→victim egress wire's forward direction.
	VictimFlap *cluster.FlapSpec
}

// chaosErrno resolves a ChaosSpec errno name.
func chaosErrno(name string) (guest.Errno, error) {
	switch name {
	case "", "eagain":
		return guest.EAGAIN, nil
	case "enomem":
		return guest.ENOMEM, nil
	case "eio":
		return guest.EIO, nil
	}
	return 0, fmt.Errorf("chaosflood: unknown fault errno %q (have eio, eagain, enomem)", name)
}

// faultSpec builds one machine's kernel fault table from the overlay
// (nil when no injection is configured, which keeps the kernel's
// zero-fault fast path and its bit-for-bit guarantee).
func (cs ChaosSpec) faultSpec() (*kernel.FaultSpec, error) {
	if cs.FaultPPM == 0 {
		return nil, nil
	}
	errno, err := chaosErrno(cs.FaultErrno)
	if err != nil {
		return nil, err
	}
	names := cs.FaultSyscalls
	if len(names) == 0 {
		names = []string{"sendto", "read"}
	}
	fs := &kernel.FaultSpec{}
	for _, name := range names {
		fs.Syscalls = append(fs.Syscalls, kernel.SyscallFault{
			Name: name, Errno: errno, ProbPPM: cs.FaultPPM,
		})
	}
	if err := fs.Validate(); err != nil {
		return nil, fmt.Errorf("chaosflood: %w", err)
	}
	return fs, nil
}

// ChaosFloodSpec is one chaos scenario: a routed flood plus the
// fault overlay.
type ChaosFloodSpec struct {
	Flood RouterFloodSpec
	Chaos ChaosSpec
}

// LinkAccounting is one link direction's conservation ledger.
type LinkAccounting struct {
	Name                             string
	Sent, Delivered, Dropped, Queued uint64
}

// Balanced reports the per-link conservation identity — every frame
// offered is delivered, dropped, or still queued, crashes and
// outages included.
func (la LinkAccounting) Balanced() bool {
	return la.Sent == la.Delivered+la.Dropped+la.Queued
}

// ChaosFloodOut is one chaos scenario's harvest.
type ChaosFloodOut struct {
	Spec   ChaosFloodSpec
	Victim ClusterVictimOut
	// Router is the forwarding daemon's accounted time across
	// schemes, summed over every router incarnation — the cumulative
	// bill that must stay monotone through crash and reboot.
	Router PartyUsage
	// RouterIncarnations counts router machines that served (1 on a
	// healthy run, 2 after a crash+restart); RouterCrashed reports
	// the scheduled crash actually fired.
	RouterIncarnations int
	RouterCrashed      bool
	// RouterForwarded counts frames retransmitted across all router
	// incarnations.
	RouterForwarded uint64
	// FaultsInjected sums injected syscall errors over every machine
	// (incarnations included); zero on a zero-PPM run by
	// construction.
	FaultsInjected uint64
	// Flow is the well-behaved transfer's harvest.
	Flow AckFlowStats
	// Links holds both directions of every declared link, in
	// declaration order (forward then reverse).
	Links []LinkAccounting
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// Unbalanced returns the names of link directions whose conservation
// identity fails (empty on every honest run).
func (out *ChaosFloodOut) Unbalanced() []string {
	var bad []string
	for _, la := range out.Links {
		if !la.Balanced() {
			bad = append(bad, la.Name)
		}
	}
	return bad
}

// RunChaosFlood executes one chaos scenario on the routed star of
// runRoutedFlood; the overlay's crash/restart target is the router.
// The flow sender writes off outstanding frames after 50 ms of
// virtual time without an ack, so a dead router makes it give up
// instead of polling forever.
func RunChaosFlood(spec ChaosFloodSpec) (*ChaosFloodOut, error) {
	fl := spec.Flood
	r, err := runRoutedFlood("chaosflood "+chaosFloodKey(spec), fl, spec.Chaos, 50_000, "ack-paced ecn sender v1 (chaos-hardened)")
	if err != nil {
		return nil, err
	}
	routerIdx := fl.Attackers + 1
	out := &ChaosFloodOut{
		Spec:               spec,
		Victim:             r.victims[0],
		Router:             r.router,
		RouterIncarnations: len(r.cl.Incarnations(routerIdx)),
		RouterCrashed:      r.cl.Crashed(routerIdx),
		RouterForwarded:    r.forwarded,
		Flow:               r.flow,
		ElapsedSec:         r.elapsedSec,
	}
	for i := 0; i < r.cl.Size(); i++ {
		for _, inc := range r.cl.Incarnations(i) {
			out.FaultsInjected += inc.FaultsInjected()
		}
	}
	for i := 0; i < r.cl.Links(); i++ {
		name := "router/victim"
		if i < routerIdx {
			name = r.cl.Name(i) + "/router"
		}
		fwd := r.cl.Link(i)
		rev := fwd.Reverse()
		out.Links = append(out.Links,
			LinkAccounting{Name: name + "/fwd", Sent: fwd.Sent(), Delivered: fwd.Delivered(), Dropped: fwd.Dropped(), Queued: fwd.Queued()},
			LinkAccounting{Name: name + "/rev", Sent: rev.Sent(), Delivered: rev.Delivered(), Dropped: rev.Dropped(), Queued: rev.Queued()},
		)
	}
	return out, nil
}

func chaosFloodKey(spec ChaosFloodSpec) string {
	return fmt.Sprintf("%d-attackers/%dpps/%dppm/crash@%gs",
		spec.Flood.Attackers, spec.Flood.PerAttackerPPS, spec.Chaos.FaultPPM, spec.Chaos.RouterCrashSec)
}

// ChaosFloodBase is the shared flood under every chaos scenario: the
// routerflood artifact's worst case (two attackers at 20k pps each
// through the RED-managed 30k-pps egress, alongside the ECN flow).
func ChaosFloodBase(o Options) RouterFloodSpec {
	return RouterFloodSpec{
		Opts:           o,
		Attackers:      routerFloodAttackers,
		PerAttackerPPS: 20_000,
		Victim:         ClusterVictim{Workload: "O", Billing: "jiffy"},
		EgressPPS:      routerFloodEgressPPS,
		RED:            routerFloodRED(),
		FlowFrames:     routerFloodFlowFrames,
	}
}

// chaosFlood regenerates the billing-integrity-under-faults artifact:
// the routed flood run healthy, under 2% transient syscall faults,
// with the router killed mid-flood, and with crash+reboot plus a
// flapping victim egress. Every scenario's per-link conservation
// identity and the router's cumulative per-scheme bill are rendered;
// an unbalanced ledger anywhere is an error in the fabric, not a
// rendering choice.
func chaosFlood(o Options) plan {
	base := ChaosFloodBase(o)
	floodSec, _ := floodSeconds(o, base.Victim) // the base victim is a known program
	flap := &cluster.FlapSpec{
		FirstDownUs: uint64(floodSec * 0.2 * 1e6),
		DownUs:      uint64(floodSec * 0.05 * 1e6),
		UpUs:        uint64(floodSec * 0.2 * 1e6),
	}
	scenarios := []struct {
		label string
		chaos ChaosSpec
	}{
		{"healthy", ChaosSpec{}},
		{"2% faults", ChaosSpec{FaultPPM: 20_000}},
		{"router crash", ChaosSpec{RouterCrashSec: floodSec * 0.45}},
		{"crash+reboot+flap", ChaosSpec{
			FaultPPM:         20_000,
			RouterCrashSec:   floodSec * 0.3,
			RouterRestartSec: floodSec * 0.15,
			VictimFlap:       flap,
		}},
	}
	specs := make([]ChaosFloodSpec, len(scenarios))
	for i, sc := range scenarios {
		specs[i] = ChaosFloodSpec{Flood: base, Chaos: sc.chaos}
	}
	return declare(specs, RunChaosFlood, chaosFloodKey, func(outs []*ChaosFloodOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Chaos Flood",
			Title: "Billing Integrity Under Faults (routed flood with syscall faults, router crash/reboot, link flap)",
			Unit:  "CPU seconds (jiffy-billed on each owning machine, summed across incarnations)",
		}
		for i, sc := range scenarios {
			out := outs[i]
			fig.Bars = append(fig.Bars,
				billBar("router-fwd", sc.label, out.Router.User["jiffy"], out.Router.Sys["jiffy"]),
				billBar("victim-host", sc.label, out.Victim.Run.Victim.User["jiffy"], out.Victim.Run.Victim.Sys["jiffy"]),
			)
			ledger := "every link ledger balanced (Sent = Delivered + Dropped + Queued)"
			if bad := out.Unbalanced(); len(bad) > 0 {
				ledger = fmt.Sprintf("LEDGER VIOLATION on %v", bad)
			}
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"%s: %d faults injected, router incarnations %d (crashed %v), forwarded %d; flow acked %d/%d (gave up %v, send errs %d); %s",
				sc.label, out.FaultsInjected, out.RouterIncarnations, out.RouterCrashed,
				out.RouterForwarded, out.Flow.Acked, routerFloodFlowFrames, out.Flow.GaveUp,
				out.Flow.SendErrors, ledger))
		}
		fig.Notes = append(fig.Notes,
			"expectation: killing the router mid-flood truncates its bill (the crashed incarnation's ledger survives) without breaking any link's conservation identity; injected faults shift work between retries and drops but never un-account a frame",
		)
		return fig, nil
	})
}
