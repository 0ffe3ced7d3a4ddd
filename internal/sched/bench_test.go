package sched

import (
	"math/rand"
	"testing"

	"repro/internal/proc"
	"repro/internal/sim"
)

// BenchmarkScheduler times one scheduler op per policy in three
// shapes, each of which must allocate nothing:
//
//   - idle: PickNext on an empty queue that once held every nice
//     level, the dispatch of a machine with nothing runnable (almost
//     every pick in the fork lab);
//   - spread64: the bench probe's op over 64 tasks spanning every nice
//     level: pick, charge 1–60 ms, requeue, and in one op of eight
//     remove and requeue another task;
//   - onelevel: pick, charge and requeue over 64 tasks at one nice
//     value, the FIFO pop path.
//
// A/B it with `go test -c` binaries of two trees at -test.cpu 1.
func BenchmarkScheduler(b *testing.B) {
	const cyclesPerMs = 1_000_000
	for _, pol := range []struct {
		name string
		new  func() Scheduler
	}{
		{"o1", func() Scheduler { return NewO1(cyclesPerMs) }},
		{"cfs", func() Scheduler { return NewCFS(cyclesPerMs) }},
	} {
		b.Run(pol.name+"/idle", func(b *testing.B) {
			s := pol.new()
			for nice := proc.MinNice; nice <= proc.MaxNice; nice++ {
				s.Enqueue(mk(nice-proc.MinNice+1, nice))
			}
			for s.PickNext() != nil {
			}
			b.ReportAllocs()
			for b.Loop() {
				if s.PickNext() != nil {
					b.Fatal("idle queue picked a task")
				}
			}
		})
		b.Run(pol.name+"/spread64", func(b *testing.B) {
			benchCycle(b, pol.new(), func(i int) int { return proc.MinNice + i%40 }, 8)
		})
		b.Run(pol.name+"/onelevel", func(b *testing.B) {
			benchCycle(b, pol.new(), func(int) int { return 0 }, 0)
		})
	}
}

// benchCycle keeps 64 tasks with the given nice values runnable on s
// and times one pick/charge/requeue op; when removeEvery > 0, one op
// in removeEvery also removes and requeues a random task.
func benchCycle(b *testing.B, s Scheduler, nice func(i int) int, removeEvery int) {
	const tasks, ops = 64, 4096
	procs := make([]*proc.Proc, tasks)
	for i := range procs {
		procs[i] = mk(i+1, nice(i))
		s.Enqueue(procs[i])
	}
	rng := rand.New(rand.NewSource(2010))
	charge := make([]sim.Cycles, ops)
	remove := make([]int, ops)
	for i := range charge {
		charge[i] = sim.Cycles(1_000_000 + rng.Intn(59_000_000))
		remove[i] = -1
		if removeEvery > 0 && rng.Intn(removeEvery) == 0 {
			remove[i] = rng.Intn(tasks)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := i % ops
		p := s.PickNext()
		s.Charge(p, charge[k])
		s.Enqueue(p)
		if r := remove[k]; r >= 0 {
			s.Remove(procs[r])
			s.Enqueue(procs[r])
		}
	}
}
