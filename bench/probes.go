package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// A probe drives one layer's public functions directly with a seeded op
// stream, so a layer's cost is measured apart from any workload. Each
// sample does its own set-up and times only the op loop.
type probe struct {
	name   string // metric prefix: <name>_<unit> and <name>_allocs
	unit   string // "ns" per op, or "us" per op for coarse ops
	allocs bool   // also report allocations per op
	// countName, when set, also reports the ops per sample, for probes
	// whose op count is itself an exact outcome.
	countName string
	sample    func(seed int64, sz size) func() (probeSample, error)
}

type probeSample struct {
	ops     int
	elapsed time.Duration
	allocs  uint64
}

// probeSamples is how many interleaved samples each probe takes; a
// probe's time is their median.
const probeSamples = 10

var probes = []probe{
	{name: "sim.queue", unit: "ns", allocs: true, sample: queueProbe},
	{name: "sched.o1", unit: "ns", allocs: true, sample: schedProbe(func() sched.Scheduler { return sched.NewO1(1_000_000) })},
	{name: "sched.cfs", unit: "ns", allocs: true, sample: schedProbe(func() sched.Scheduler { return sched.NewCFS(1_000_000) })},
	{name: "metering.charge", unit: "ns", allocs: true, sample: chargeProbe},
	{name: "device.drr", unit: "ns", allocs: true, sample: drrProbe},
	{name: "kernel.syscall", unit: "ns", allocs: true, sample: syscallProbe(false)},
	{name: "kernel.syscall_faulted", unit: "ns", sample: syscallProbe(true)},
	{name: "cluster.round", unit: "us", countName: "cluster.rounds", sample: clusterProbe},
}

// measure times fn and counts the heap allocations it makes.
func measure(fn func() int) probeSample {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	n := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	return probeSample{ops: n, elapsed: d, allocs: b.Mallocs - a.Mallocs}
}

// runProbes takes probeSamples samples of every probe, interleaved so
// host noise lands on all probes alike, and returns each probe's
// metrics.
func runProbes(seed int64, sz size) (map[string]metric, error) {
	samplers := make([]func() (probeSample, error), len(probes))
	for i, p := range probes {
		samplers[i] = p.sample(seed, sz)
	}
	perOp := make([][]float64, len(probes))
	ops := make([][]float64, len(probes))
	allocs := make([]uint64, len(probes))
	totalOps := make([]int, len(probes))
	for s := 0; s < probeSamples; s++ {
		for i, p := range probes {
			ps, err := samplers[i]()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			scale := 1.0
			if p.unit == "us" {
				scale = 1e-3
			}
			perOp[i] = append(perOp[i], float64(ps.elapsed.Nanoseconds())*scale/float64(ps.ops))
			ops[i] = append(ops[i], float64(ps.ops))
			allocs[i] += ps.allocs
			totalOps[i] += ps.ops
		}
	}
	out := map[string]metric{}
	for i, p := range probes {
		out[p.name+"_"+p.unit] = metric{median(perOp[i]), p.unit}
		if p.allocs {
			out[p.name+"_allocs"] = metric{float64(allocs[i]) / float64(totalOps[i]), "count"}
		}
		if p.countName != "" {
			out[p.countName] = metric{median(ops[i]), "count"}
		}
	}
	return out, nil
}

// queueProbe keeps 64 events pending: each op pops the earliest event,
// releases it, and schedules a replacement, except one op in ten,
// which cancels a pending event and schedules its replacement.
func queueProbe(seed int64, sz size) func() (probeSample, error) {
	const depth = 64
	type qop struct {
		delay  sim.Cycles
		cancel bool
		slot   uint64
	}
	rng := rand.New(rand.NewSource(seed))
	stream := make([]qop, sz.probeOps)
	for i := range stream {
		stream[i] = qop{delay: sim.Cycles(1 + rng.Intn(10_000)), cancel: rng.Intn(10) == 0, slot: uint64(rng.Intn(depth))}
	}
	q := sim.NewEventQueue()
	fire := func() {}
	live := make([]*sim.Event, depth)
	for i := range live {
		live[i] = q.ScheduleTagged(sim.Cycles(1+rng.Intn(10_000)), "probe", uint64(i), fire)
	}
	var now sim.Cycles
	return func() (probeSample, error) {
		return measure(func() int {
			for _, o := range stream {
				if o.cancel {
					q.Cancel(live[o.slot])
					live[o.slot] = q.ScheduleTagged(now+o.delay, "probe", o.slot, fire)
					continue
				}
				e := q.Pop()
				now = e.At
				slot := e.Tag
				q.Release(e)
				live[slot] = q.ScheduleTagged(now+o.delay, "probe", slot, fire)
			}
			return len(stream)
		}), nil
	}
}

// schedProbe keeps 64 tasks with nice values spread over the whole
// range (so some priority buckets hold a single task) runnable: each op
// picks the next task, charges it a slice, and requeues it, and one op
// in eight also removes and requeues a random task.
func schedProbe(newSched func() sched.Scheduler) func(seed int64, sz size) func() (probeSample, error) {
	return func(seed int64, sz size) func() (probeSample, error) {
		const tasks = 64
		type sop struct {
			charge sim.Cycles
			remove int
		}
		rng := rand.New(rand.NewSource(seed))
		procs := make([]*proc.Proc, tasks)
		s := newSched()
		for i := range procs {
			procs[i] = proc.New(proc.PID(i+1), "probe", nil)
			procs[i].SetNice(rng.Intn(proc.MaxNice-proc.MinNice+1) + proc.MinNice)
			s.Enqueue(procs[i])
		}
		stream := make([]sop, sz.probeOps)
		for i := range stream {
			stream[i] = sop{charge: sim.Cycles(1_000_000 + rng.Intn(59_000_000)), remove: -1}
			if rng.Intn(8) == 0 {
				stream[i].remove = rng.Intn(tasks)
			}
		}
		return func() (probeSample, error) {
			return measure(func() int {
				for _, o := range stream {
					p := s.PickNext()
					s.Charge(p, o.charge)
					s.Enqueue(p)
					if o.remove >= 0 {
						r := procs[o.remove]
						s.Remove(r)
						s.Enqueue(r)
					}
				}
				return len(stream)
			}), nil
		}
	}
}

// chargeProbe drives all three meters through Multi over 16 thread
// groups: mostly execution slices, with timer ticks and NIC interrupts
// mixed in, and the current group switching every few ops as a
// scheduler would.
func chargeProbe(seed int64, sz size) func() (probeSample, error) {
	const groups = 16
	type cop struct {
		kind int // 0 run, 1 tick, 2 interrupt
		p    int
		mode cpu.Mode
		d    sim.Cycles
	}
	rng := rand.New(rand.NewSource(seed))
	procs := make([]*proc.Proc, groups)
	for i := range procs {
		procs[i] = proc.New(proc.PID(i+1), "probe", nil)
	}
	stream := make([]cop, sz.probeOps)
	cur := 0
	for i := range stream {
		if rng.Intn(4) == 0 {
			cur = rng.Intn(groups)
		}
		o := cop{p: cur, mode: cpu.User, d: sim.Cycles(1 + rng.Intn(100_000))}
		if rng.Intn(3) == 0 {
			o.mode = cpu.Kernel
		}
		switch rng.Intn(10) {
		case 0:
			o.kind = 1
		case 1:
			o.kind = 2
		}
		stream[i] = o
	}
	m := metering.NewMulti(metering.NewJiffy(10_120_000), metering.NewTSC(), metering.NewProcessAware())
	return func() (probeSample, error) {
		return measure(func() int {
			for _, o := range stream {
				p := procs[o.p]
				switch o.kind {
				case 0:
					m.OnRun(p, o.mode, o.d)
				case 1:
					m.OnTick(p, o.mode)
				default:
					m.OnInterrupt(device.IRQNIC, p, o.d)
				}
			}
			return len(stream)
		}), nil
	}
}

// drrProbe offers frames of 8 flows (flow 0 a flood, the rest sparse)
// to a DRR queue bounded at 64 frames: each op is an Enqueue — shedding
// from the longest flow first when full — or a Dequeue.
func drrProbe(seed int64, sz size) func() (probeSample, error) {
	const flows, limit = 8, 64
	type dop struct {
		enqueue bool
		entry   device.QdiscEntry
	}
	rng := rand.New(rand.NewSource(seed))
	stream := make([]dop, sz.probeOps)
	for i := range stream {
		flow := uint32(0)
		if rng.Intn(2) == 0 {
			flow = uint32(1 + rng.Intn(flows-1))
		}
		f := device.Frame{Flow: flow, Bytes: uint32(64 + rng.Intn(1451))}
		stream[i] = dop{enqueue: rng.Intn(20) < 11, entry: device.QdiscEntry{F: f, Cost: device.WireBytes(f)}}
	}
	d := device.NewDRR(1514)
	return func() (probeSample, error) {
		return measure(func() int {
			for _, o := range stream {
				if !o.enqueue {
					d.Dequeue()
					continue
				}
				if d.Len() >= limit {
					if flow, ok := d.LongestFlow(); ok {
						d.StealFrom(flow)
					}
				}
				d.Enqueue(o.entry)
			}
			return len(stream)
		}), nil
	}
}

// syscaller is a flyweight guest issuing one syscall per activation.
type syscaller struct {
	left int
	self guest.Step
}

func (g *syscaller) step(ctx guest.Context, _ guest.Resume) guest.Step {
	if g.left == 0 {
		return nil
	}
	g.left--
	ctx.Syscall("gettime") // an injected fault arrives in the next Resume and is ignored
	return g.self
}

// syscallProbe times syscall dispatch through one flyweight guest on a
// fresh machine, optionally with a 1% EAGAIN fault armed on the call so
// the fault roll is on the path.
func syscallProbe(faulted bool) func(seed int64, sz size) func() (probeSample, error) {
	return func(seed int64, sz size) func() (probeSample, error) {
		return func() (probeSample, error) {
			cfg := kernel.Config{Seed: seed, CPUHz: 1_000_000_000}
			if faulted {
				cfg.Faults = &kernel.FaultSpec{Syscalls: []kernel.SyscallFault{
					{Name: "gettime", Errno: guest.EAGAIN, ProbPPM: kernel.PPMScale / 100},
				}}
			}
			m := kernel.New(cfg)
			g := &syscaller{left: sz.probeOps}
			g.self = g.step
			if _, err := m.Spawn(kernel.SpawnConfig{Name: "syscaller", Content: "syscall probe v1", Step: g.self}); err != nil {
				return probeSample{}, err
			}
			var err error
			s := measure(func() int {
				err = m.Run()
				return sz.probeOps
			})
			return s, err
		}
	}
}

// clusterProbe runs a 2-machine ack-paced ECN transfer and steps the
// cluster with RunUntil one lookahead (the link latency) at a time;
// an op is one step.
func clusterProbe(seed int64, sz size) func() (probeSample, error) {
	const hz, latencyUs = 1_000_000_000, 50
	lookahead := sim.Cycles(latencyUs * (hz / 1_000_000))
	return func() (probeSample, error) {
		flow := experiments.AckFlowConfig{Peer: 2, Flow: 1, Frames: uint64(sz.clusterFrames), Window: 8, PaceCycles: 20_000}
		var stats experiments.AckFlowStats
		cl, err := cluster.New(cluster.Config{
			Machines: []cluster.MachineSpec{
				{Config: kernel.Config{Seed: seed, CPUHz: hz}, Boot: func(_ *cluster.Cluster, m *kernel.Machine) error {
					_, err := m.Spawn(kernel.SpawnConfig{Name: "sender", Content: "ack sender probe v1", Step: experiments.AckPacedSenderStep(flow, &stats)})
					return err
				}},
				{Config: kernel.Config{Seed: seed + 1, CPUHz: hz}, Service: true, Boot: func(_ *cluster.Cluster, m *kernel.Machine) error {
					_, err := m.Spawn(kernel.SpawnConfig{Name: "echod", Content: "ack echo probe v1", Step: experiments.AckEchoStep(flow.Flow)})
					return err
				}},
			},
			Links: []cluster.LinkSpec{{From: 0, To: 1, LatencyUs: latencyUs, PacketsPerSecond: cluster.DefaultLinkPPS}},
		})
		if err != nil {
			return probeSample{}, err
		}
		var runErr error
		s := measure(func() int {
			rounds := 0
			for stop := lookahead; ; stop += lookahead {
				done, err := cl.RunUntil(stop)
				rounds++
				if err != nil || done {
					runErr = err
					return rounds
				}
			}
		})
		if runErr == nil && (stats.GaveUp || stats.Acked < flow.Frames) {
			runErr = fmt.Errorf("ack flow acked %d of %d frames", stats.Acked, flow.Frames)
		}
		return s, runErr
	}
}
