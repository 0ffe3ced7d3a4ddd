package cluster

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestForwarderRoutesAcrossHops pins the routed fabric end to end:
// A → router → B over static routes, with the router a real Service
// machine running the forwarding daemon. B sees A's frames with the
// original Src preserved across the hop and acks them back through
// the router; the cluster completes by retiring the quiesced router.
func TestForwarderRoutesAcrossHops(t *testing.T) {
	const frames = 5
	var got []Frame
	var acked uint64
	cl, err := New(Config{
		Machines: []MachineSpec{
			{
				Name:   "a",
				Config: kernel.Config{Seed: 101, CPUHz: testHz},
				Boot: func(c *Cluster, m *kernel.Machine) error {
					dst := c.AddrOf(2)
					router := c.AddrOf(1)
					_, err := m.Spawn(kernel.SpawnConfig{
						Name:    "sender",
						Content: "sender v1",
						Body: func(ctx guest.Context) {
							for i := 0; i < frames; i++ {
								//simlint:errno-ok carried bool is the assertion; this fixture injects no faults
								if ok, _ := ctx.NetSend(guest.Frame{Dst: dst, Flow: 9}); !ok {
									t.Error("send refused on an open routed path")
								}
							}
							// A frame addressed to the router itself is
							// consumed there, not re-routed or miscounted
							// as a transmit drop.
							//simlint:errno-ok fault-free fixture; the router-addressed frame's fate is asserted via counters
							ctx.NetSend(guest.Frame{Dst: router, Flow: 1})
							for acked < frames {
								acked = ctx.NetRxWait(acked)
							}
						},
					})
					return err
				},
			},
			{
				Name:    "router",
				Config:  kernel.Config{Seed: 102, CPUHz: testHz},
				Service: true,
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					step, fork := ForwarderGuest(3000)
					_, err := m.Spawn(kernel.SpawnConfig{
						Name:    "fwd",
						Content: "fwd v1",
						Step:    step,
						Fork:    fork,
					})
					return err
				},
			},
			{
				Name:   "b",
				Config: kernel.Config{Seed: 103, CPUHz: testHz},
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					_, err := m.Spawn(kernel.SpawnConfig{
						Name:    "responder",
						Content: "responder v1",
						Body: func(ctx guest.Context) {
							seen := uint64(0)
							for len(got) < frames {
								seen = ctx.NetRxWait(seen)
								for {
									//simlint:errno-ok drain loop; ok bounds it and this fixture injects no faults
									f, ok, _ := ctx.NetRecv()
									if !ok {
										break
									}
									got = append(got, f)
									//simlint:errno-ok fault-free fixture; echo delivery is asserted via the got slice
									ctx.NetSend(guest.Frame{Dst: f.Src, Flow: f.Flow})
								}
							}
						},
					})
					return err
				},
			},
		},
		Links: []LinkSpec{
			{From: 0, To: 1, LatencyUs: 200},
			{From: 1, To: 2, LatencyUs: 200},
		},
		Routes: []RouteSpec{
			{On: 0, Dst: 2, Via: 1}, // A reaches B through the router
			{On: 2, Dst: 0, Via: 1}, // and B's acks come back the same way
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run = %v, want clean completion (service router retired at quiesce)", err)
	}
	if !cl.Done(1) {
		t.Error("router not marked done after quiesce")
	}
	if len(got) != frames {
		t.Fatalf("B received %d frames, want %d", len(got), frames)
	}
	for _, f := range got {
		if f.Src != cl.AddrOf(0) || f.Flow != 9 {
			t.Fatalf("frame %+v: want Src %d / Flow 9 preserved across the router hop", f, cl.AddrOf(0))
		}
	}
	if acked != frames {
		t.Fatalf("A saw %d acks, want %d", acked, frames)
	}
	// The router paid for the forwarding: its daemon's billed time is
	// nonzero under the machine's own (jiffy-first) accounting fan-out,
	// and its NIC carried both directions.
	rm := cl.Machine(1)
	if tx := rm.NIC().Transmitted(); tx != 2*frames {
		t.Errorf("router transmitted %d frames, want %d (data + acks)", tx, 2*frames)
	}
	if drops := rm.NIC().TxDropped(); drops != 0 {
		t.Errorf("router counted %d tx drops, want 0 (the self-addressed frame is consumed, not re-routed)", drops)
	}
	u, ok := rm.UsageBy("tsc", 1) // fwd is the router's first (pid 1) task
	if !ok || u.User == 0 || u.System == 0 {
		t.Errorf("router fwd usage = %+v, want nonzero user (lookup) and system (rx/tx syscalls)", u)
	}
}

// TestServiceMachineQuiesces pins the completion rule: a cluster
// whose only unfinished machine is a Service daemon blocked on
// network input completes cleanly instead of reporting ErrStalled.
func TestServiceMachineQuiesces(t *testing.T) {
	mk := func(service bool) error {
		cl, err := New(Config{Machines: []MachineSpec{
			{
				Config: kernel.Config{Seed: 111, CPUHz: testHz},
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					return spawnBusy(m, "job", 0.01)
				},
			},
			{
				Config:  kernel.Config{Seed: 112, CPUHz: testHz},
				Service: service,
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					_, err := m.Spawn(kernel.SpawnConfig{
						Name:    "daemon",
						Content: "daemon v1",
						Body: func(ctx guest.Context) {
							ctx.NetRxWait(0) // nothing ever arrives
						},
					})
					return err
				},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Run()
	}
	if err := mk(true); err != nil {
		t.Errorf("service daemon: Run = %v, want nil", err)
	}
	if err := mk(false); err != ErrStalled {
		t.Errorf("non-service daemon: Run = %v, want ErrStalled", err)
	}
}

// redBurst drives `n` frames through a RED-armed 1k-pps wire in one
// tight burst (no virtual time between sends, so the queue builds
// deterministically) and returns the link for counter inspection.
func redBurst(t *testing.T, n int, ecn bool, red *REDSpec) *Link {
	t.Helper()
	cl, err := New(Config{
		Machines: []MachineSpec{
			{
				Config: kernel.Config{Seed: 121, CPUHz: testHz},
				Boot: func(c *Cluster, m *kernel.Machine) error {
					link := c.Link(0)
					_, err := m.Spawn(kernel.SpawnConfig{
						Name:    "burster",
						Content: "burster v1",
						Body: func(ctx guest.Context) {
							for i := 0; i < n; i++ {
								link.Send(Frame{Src: 1, Dst: 2, ECN: ecn})
							}
							ctx.Compute(1000)
						},
					})
					return err
				},
			},
			{
				Config: kernel.Config{Seed: 122, CPUHz: testHz},
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					return spawnBusy(m, "sink", 0.3)
				},
			},
		},
		Links: []LinkSpec{{
			From: 0, To: 1, LatencyUs: 200,
			PacketsPerSecond: 1000, QueueDepth: 64, RED: red,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return cl.Link(0)
}

// TestREDEarlyDropsJunkAndMarksECN pins the queue-feedback policy:
// under the same congestion, non-ECN frames take early drops between
// the thresholds while ECN-capable frames are CE-marked and carried,
// with tail-drop at the hard bound the only way an ECN frame dies.
func TestREDEarlyDropsJunkAndMarksECN(t *testing.T) {
	red := &REDSpec{MinDepth: 8, MaxDepth: 32, MaxPct: 50}

	junk := redBurst(t, 100, false, red)
	if junk.Sent() != 100 || junk.Sent() != junk.Delivered()+junk.Dropped() {
		t.Fatalf("junk accounting: sent %d, delivered %d, dropped %d", junk.Sent(), junk.Delivered(), junk.Dropped())
	}
	if junk.EarlyDropped() == 0 {
		t.Error("no early drops on a 100-frame non-ECN burst through RED(8,32)")
	}
	if junk.Marked() != 0 {
		t.Errorf("Marked = %d on non-ECN traffic, want 0", junk.Marked())
	}

	ecn := redBurst(t, 100, true, red)
	if ecn.EarlyDropped() != 0 {
		t.Errorf("EarlyDropped = %d on ECN traffic, want 0 (marks replace early drops)", ecn.EarlyDropped())
	}
	if ecn.Marked() == 0 {
		t.Error("no CE marks on a 100-frame ECN burst through RED(8,32)")
	}
	// Marks let the queue run past MaxDepth, so the burst tail must
	// hit the hard bound: ECN traffic still tail-drops there.
	if ecn.Dropped() == 0 {
		t.Error("no tail drops on a 100-frame ECN burst into a 64-deep queue")
	}
	// ECN carries more of the same burst than junk: marks are not
	// losses.
	if ecn.Delivered() <= junk.Delivered() {
		t.Errorf("ECN delivered %d <= junk delivered %d, want more (early feedback without loss)", ecn.Delivered(), junk.Delivered())
	}

	// Determinism: the probabilistic policy draws from the pipe's
	// seeded stream, so a rerun is bit-identical.
	again := redBurst(t, 100, false, red)
	if again.Delivered() != junk.Delivered() || again.EarlyDropped() != junk.EarlyDropped() {
		t.Errorf("RED rerun diverged: delivered %d/%d, early %d/%d",
			again.Delivered(), junk.Delivered(), again.EarlyDropped(), junk.EarlyDropped())
	}

	// RED disabled: same burst, pure tail-drop, no feedback counters.
	plain := redBurst(t, 100, false, nil)
	if plain.Marked() != 0 || plain.EarlyDropped() != 0 {
		t.Errorf("tail-drop-only wire recorded marks=%d early=%d", plain.Marked(), plain.EarlyDropped())
	}
}

// TestBottleneckSameCycleMachineOrder pins the documented resolution
// caveat on shared pipes: within one lockstep round, frames reach the
// bottleneck in machine order, not virtual-time order. Machine 0
// transmits late in the round, machine 1 early; with a depth-1 shared
// queue it is machine 1's virtually-earlier frame that finds the slot
// taken and drops.
func TestBottleneckSameCycleMachineOrder(t *testing.T) {
	send := func(c *Cluster, li int, sleep sim.Cycles) func(*Cluster, *kernel.Machine) error {
		_ = c
		return func(c *Cluster, m *kernel.Machine) error {
			link := c.Link(li)
			_, err := m.Spawn(kernel.SpawnConfig{
				Name:    "pktgen",
				Content: "pktgen v1",
				Body: func(ctx guest.Context) {
					ctx.Sleep(sleep)
					link.Send(Frame{Src: Addr(li + 1), Dst: 3})
				},
			})
			return err
		}
	}
	perUs := sim.Cycles(testHz / 1_000_000)
	cl, err := New(Config{
		Machines: []MachineSpec{
			{Config: kernel.Config{Seed: 131, CPUHz: testHz}, Boot: send(nil, 0, 800*perUs)},
			{Config: kernel.Config{Seed: 132, CPUHz: testHz}, Boot: send(nil, 1, 300*perUs)},
			{
				Config: kernel.Config{Seed: 133, CPUHz: testHz},
				Boot: func(_ *Cluster, m *kernel.Machine) error {
					return spawnBusy(m, "sink", 0.05)
				},
			},
		},
		// A 1k-pps wire (1 ms serialisation gap) with a depth-1 queue:
		// the second frame offered within one gap of the first drops.
		// Both sends land in the first lockstep round (width = the
		// 1000 µs lookahead), machine 0 first.
		Links: []LinkSpec{
			{From: 0, To: 2, LatencyUs: 1000, PacketsPerSecond: 1000, QueueDepth: 1, Bottleneck: "ingress"},
			{From: 1, To: 2, LatencyUs: 1000, PacketsPerSecond: 1000, QueueDepth: 1, Bottleneck: "ingress"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	l0, l1 := cl.Link(0), cl.Link(1)
	if l0.Delivered() != 1 || l0.Dropped() != 0 {
		t.Errorf("machine 0 (virtually later, resolved first): delivered %d dropped %d, want 1/0", l0.Delivered(), l0.Dropped())
	}
	if l1.Delivered() != 0 || l1.Dropped() != 1 {
		t.Errorf("machine 1 (virtually earlier, resolved second): delivered %d dropped %d, want 0/1", l1.Delivered(), l1.Dropped())
	}
}

// TestClusterValidation covers the construction-time input checks:
// duplicate machine names, self-links, out-of-range link endpoints,
// and malformed static routes all fail with descriptive errors.
func TestClusterValidation(t *testing.T) {
	mspec := func(name string) MachineSpec {
		return MachineSpec{Name: name, Config: kernel.Config{Seed: 1, CPUHz: testHz}}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "duplicate names",
			cfg: Config{Machines: []MachineSpec{
				mspec("node"), mspec("node"),
			}},
			want: "both named",
		},
		{
			name: "self link",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links:    []LinkSpec{{From: 1, To: 1}},
			},
			want: "self-link",
		},
		{
			name: "link endpoint out of range",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links:    []LinkSpec{{From: 0, To: 7}},
			},
			want: "machine indices range over",
		},
		{
			name: "route machine out of range",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links:    []LinkSpec{{From: 0, To: 1}},
				Routes:   []RouteSpec{{On: 0, Dst: 5, Via: 1}},
			},
			want: "references machines outside",
		},
		{
			name: "route to self",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links:    []LinkSpec{{From: 0, To: 1}},
				Routes:   []RouteSpec{{On: 0, Dst: 0, Via: 1}},
			},
			want: "routes to itself",
		},
		{
			name: "route via non-neighbor",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b"), mspec("c")},
				Links:    []LinkSpec{{From: 0, To: 1}},
				Routes:   []RouteSpec{{On: 0, Dst: 1, Via: 2}},
			},
			want: "no link to",
		},
		{
			name: "conflicting routes",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b"), mspec("c"), mspec("d")},
				Links:    []LinkSpec{{From: 0, To: 1}, {From: 0, To: 2}},
				Routes: []RouteSpec{
					{On: 0, Dst: 3, Via: 1},
					{On: 0, Dst: 3, Via: 2},
				},
			},
			want: "different next hop",
		},
		{
			name: "bad RED thresholds",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links:    []LinkSpec{{From: 0, To: 1, RED: &REDSpec{MinDepth: 32, MaxDepth: 8, MaxPct: 50}}},
			},
			want: "MinDepth",
		},
		{
			name: "RED past queue depth",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b")},
				Links:    []LinkSpec{{From: 0, To: 1, QueueDepth: 16, RED: &REDSpec{MinDepth: 4, MaxDepth: 32, MaxPct: 50}}},
			},
			want: "exceeds queue depth",
		},
		{
			name: "bottleneck RED mismatch",
			cfg: Config{
				Machines: []MachineSpec{mspec("a"), mspec("b"), mspec("c")},
				Links: []LinkSpec{
					{From: 0, To: 2, Bottleneck: "up", RED: &REDSpec{MinDepth: 8, MaxDepth: 32, MaxPct: 50}},
					{From: 1, To: 2, Bottleneck: "up"},
				},
			},
			want: "bottleneck",
		},
		{
			name: "unknown scheduler policy",
			cfg: Config{Machines: []MachineSpec{
				{Config: kernel.Config{Seed: 1, CPUHz: testHz, SchedulerPolicy: "rr"}},
			}},
			want: `machine 0: unknown scheduler policy "rr"`,
		},
		{
			name: "misspelled fault syscall",
			cfg: Config{Machines: []MachineSpec{
				mspec("a"),
				{Config: kernel.Config{Seed: 1, CPUHz: testHz, Faults: &kernel.FaultSpec{Syscalls: []kernel.SyscallFault{
					//simlint:syscall-ok the rejection of this typo is the property under test
					{Name: "sendot", Errno: guest.EIO, ProbPPM: 10},
				}}}},
			}},
			want: `machine 1: fault "sendot": unknown syscall`,
		},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAccessorBoundsPanics pins the descriptive out-of-range panics
// on Cluster's indexed accessors.
func TestAccessorBoundsPanics(t *testing.T) {
	cl, err := New(Config{Machines: []MachineSpec{
		{Config: kernel.Config{Seed: 1, CPUHz: testHz}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	expectPanic := func(name, want string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			msg, _ := r.(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not mention %q", name, r, want)
			}
		}()
		fn()
	}
	expectPanic("Machine", "Machine(3) out of range", func() { cl.Machine(3) })
	expectPanic("Link", "Link(0) out of range", func() { cl.Link(0) })
	expectPanic("AddrOf", "AddrOf(-1) out of range", func() { cl.AddrOf(-1) })
	expectPanic("Name", "Name(9) out of range", func() { cl.Name(9) })
}
