package cluster

import (
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// fuzzKernels are the machine configs FuzzClusterConfig draws from:
// small memories, both scheduler policies, an armed fault spec, and
// three that New must reject (a second timebase, an unknown policy,
// a misspelled fault syscall).
var fuzzKernels = []kernel.Config{
	{Seed: 1, CPUHz: testHz, PhysMemBytes: 8 << 20},
	{Seed: 2, CPUHz: testHz, PhysMemBytes: 4 << 20, SchedulerPolicy: "cfs", RxBufFrames: 4},
	{Seed: 3, CPUHz: testHz, PhysMemBytes: 8 << 20, Faults: &kernel.FaultSpec{Syscalls: []kernel.SyscallFault{
		{Name: "sendto", Errno: guest.EAGAIN, ProbPPM: 10_000},
		{Name: "read", Errno: guest.EIO, ProbPPM: 0},
	}}},
	{Seed: 4, CPUHz: 2 * testHz, PhysMemBytes: 4 << 20},
	{Seed: 5, CPUHz: testHz, PhysMemBytes: 4 << 20, SchedulerPolicy: "rr"},
	{Seed: 6, CPUHz: testHz, PhysMemBytes: 4 << 20, Faults: &kernel.FaultSpec{Syscalls: []kernel.SyscallFault{
		//simlint:syscall-ok the rejection of this typo is the property under test
		{Name: "sendot", Errno: guest.EIO, ProbPPM: 10},
	}}},
}

// fuzzBytes hands out a fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// pick returns a value in [0, n).
func (b *fuzzBytes) pick(n int) int { return int(b.next()) % n }

// index returns a machine index in [-1, n]: in range, or one past
// either end.
func (b *fuzzBytes) index(n int) int {
	if v := b.pick(n + 2); v <= n {
		return v
	}
	return -1
}

// flap returns nil or a flap schedule, DownUs zero included.
func (b *fuzzBytes) flap() *FlapSpec {
	if b.pick(2) == 0 {
		return nil
	}
	return &FlapSpec{FirstDownUs: uint64(b.next()) * 100, DownUs: uint64(b.pick(4)) * 250, UpUs: uint64(b.pick(3)) * 1000}
}

// decodeClusterConfig builds a cluster config of up to 4 machines
// from a fuzz input: every LinkSpec field, routes, a shared swap and
// crash/restart times, in and out of their valid ranges. A zero byte
// leaves an optional part out.
func decodeClusterConfig(b *fuzzBytes) Config {
	var cfg Config
	n := 1 + b.pick(4)
	for i := 0; i < n; i++ {
		ms := MachineSpec{
			Name:    []string{"", "a", "b"}[b.pick(3)],
			Config:  fuzzKernels[b.pick(len(fuzzKernels))],
			Service: b.pick(2) == 1,
		}
		ms.CrashAt = sim.Cycles(b.pick(4)) * sim.Cycles(testHz/1000)
		ms.RestartAfter = sim.Cycles(b.pick(4)) * sim.Cycles(testHz/1000)
		cfg.Machines = append(cfg.Machines, ms)
	}
	for nl := b.pick(5); nl > 0; nl-- {
		ls := LinkSpec{
			From:             b.index(n),
			To:               b.index(n),
			LatencyUs:        uint64(b.pick(4)) * 100,
			PacketsPerSecond: []uint64{0, UnlimitedPPS, 1, 1000, DefaultLinkPPS, 1 << 40}[b.pick(6)],
			QueueDepth:       uint64(b.pick(80)),
			Bottleneck:       []string{"", "up", "down"}[b.pick(3)],
			Qdisc:            []string{"", QdiscFIFO, QdiscDRR, "sfq"}[b.pick(4)],
			QuantumBytes:     []uint64{0, 64, DefaultQuantumBytes}[b.pick(3)],
			Flap:             b.flap(),
			RevFlap:          b.flap(),
		}
		if b.pick(2) == 1 {
			ls.RED = &REDSpec{
				MinDepth: uint64(b.pick(40)),
				MaxDepth: uint64(b.pick(80)),
				MaxPct:   uint64(b.pick(110)),
				Weight:   uint64(b.pick(18)),
			}
		}
		cfg.Links = append(cfg.Links, ls)
	}
	for nr := b.pick(3); nr > 0; nr-- {
		cfg.Routes = append(cfg.Routes, RouteSpec{On: b.index(n), Dst: b.index(n), Via: b.index(n)})
	}
	if b.pick(2) == 1 {
		ss := &SharedSwapSpec{Host: b.index(n), ServiceUs: uint64(b.pick(3)) * 20}
		for nc := b.pick(4); nc > 0; nc-- {
			ss.Clients = append(ss.Clients, b.index(n))
		}
		cfg.SharedSwap = ss
	}
	return cfg
}

// FuzzClusterConfig feeds decoded configs to New, which must return
// an error or a cluster and never panic.
func FuzzClusterConfig(f *testing.F) {
	// Two machines and one plain link.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1})
	// Four machines, a DRR bottleneck with RED shared by two links, an
	// infinite-rate link, routes and a shared swap.
	f.Add([]byte{
		3, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 3,
		0, 3, 1, 4, 64, 1, 2, 2, 0, 0, 1, 8, 32, 50, 4,
		1, 3, 1, 4, 64, 1, 2, 2, 0, 0, 1, 8, 32, 50, 4,
		2, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0,
		2, 2, 3, 0, 3, 2, 0,
		1, 1, 1, 2, 2, 3,
	})
	// A crash and restart beside a periodically flapped link.
	f.Add([]byte{1, 1, 0, 0, 2, 3, 2, 0, 1, 0, 0, 1, 1, 0, 0, 3, 10, 0, 1, 0, 1, 5, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		cl, err := New(decodeClusterConfig(&b))
		if (cl == nil) == (err == nil) {
			t.Fatalf("New returned cluster %v and error %v; want exactly one", cl, err)
		}
		if cl != nil {
			cl.Shutdown()
		}
	})
}

// FuzzClusterRun runs decoded fabrics to the end. Every member boots a
// sink, which waits forever or exits after a decoded number of
// deliveries, and a small sender toward a decoded peer. Whatever Run
// returns, every link direction must balance, Sent = Delivered +
// Dropped + Queued, and a Run that returns nil must leave nothing
// queued. Both guests are forkable, so a decoded barrier (in 20 µs
// steps; zero runs straight through) checkpoints the fabric there
// when Snapshot accepts it: the original and its restore, each run to
// the end, must render identically and return the same error.
func FuzzClusterRun(f *testing.F) {
	// Three service members; links 0→2 and 1→0 share a 1,000-pps DRR
	// bottleneck homed on member 2, which crashes at 2 ms and never
	// reboots while frames for member 0 stand in the backlog.
	bottleneck := []byte{
		2,
		1, 0, 1, 0, 0,
		2, 0, 1, 0, 0,
		0, 1, 1, 2, 0,
		2,
		0, 2, 1, 3, 32, 1, 2, 0, 0, 0, 0,
		1, 0, 1, 3, 32, 1, 2, 0, 0, 0, 0,
		0, 0,
		2, 15, 0, 1,
		0, 15, 0, 2,
		0, 0, 0, 3,
	}
	f.Add(bottleneck)
	// All three members crash at 1 ms and only the first two reboot:
	// the 1-pps DRR link 1→0 loses every live home at once, and the
	// frame member 1 sends after its reboot needs a live one again.
	f.Add([]byte("20011100111000109290000000008202002000000000000"))
	// The first fabric checkpointed at 800 µs, with the home's crash
	// still pending.
	f.Add(append(bottleneck, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		cfg := decodeClusterConfig(&b)
		for i := range cfg.Machines {
			peer, frames := b.pick(len(cfg.Machines)), 1+b.pick(16)
			limit, flow := uint64(b.pick(4))*4, uint32(b.pick(4))
			cfg.Machines[i].Boot = func(c *Cluster, m *kernel.Machine) error {
				sink, fork := guest.Resumable(snapWatcher{limit: limit})
				if _, err := m.Spawn(kernel.SpawnConfig{Name: "sink", Content: "sink v1", Step: sink, Fork: fork}); err != nil {
					return err
				}
				send, fork := guest.Resumable(snapSender{dst: c.AddrOf(peer), flow: flow, frames: frames, gap: 40_000})
				_, err := m.Spawn(kernel.SpawnConfig{Name: "pktgen", Content: "pktgen v1", Step: send, Fork: fork})
				return err
			}
		}
		barrier := sim.Cycles(b.next()) * 20 * sim.Cycles(testHz/1_000_000)
		cl, err := New(cfg)
		if err != nil {
			return
		}
		var img *ClusterImage
		done, runErr := false, error(nil)
		if barrier > 0 {
			if done, runErr = cl.RunUntil(barrier); !done && runErr == nil {
				img, _ = cl.Snapshot() // nil where Snapshot refuses the cluster
			}
		}
		if !done && runErr == nil {
			runErr = cl.Run()
		}
		checkRunBalanced(t, cl, runErr)
		if img == nil {
			return
		}
		r, err := Restore(img)
		if err != nil {
			t.Fatalf("restore at %d: %v", barrier, err)
		}
		rerr := r.Run()
		if fmt.Sprint(rerr) != fmt.Sprint(runErr) {
			t.Fatalf("barrier %d: the original's Run returned %v, the restore's %v", barrier, runErr, rerr)
		}
		checkRunBalanced(t, r, rerr)
		if want, got := renderCluster(cl), renderCluster(r); got != want {
			t.Fatalf("barrier %d: the restore diverged from the original:\n--- original\n%s--- restored\n%s", barrier, want, got)
		}
	})
}

// checkRunBalanced requires every link direction of a cluster whose
// run returned runErr to balance, and to hold nothing queued when the
// run succeeded.
func checkRunBalanced(t *testing.T, cl *Cluster, runErr error) {
	t.Helper()
	for i := 0; i < cl.Links(); i++ {
		for d, l := range []*Link{cl.Link(i), cl.Link(i).Reverse()} {
			if l.Sent() != l.Delivered()+l.Dropped()+l.Queued() || (runErr == nil && l.Queued() != 0) {
				t.Fatalf("link%d.%d after Run (err %v): sent %d, delivered %d, dropped %d, queued %d",
					i, d, runErr, l.Sent(), l.Delivered(), l.Dropped(), l.Queued())
			}
		}
	}
}
