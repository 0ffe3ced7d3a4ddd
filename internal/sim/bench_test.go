package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventQueue measures one hold step at a steady queue depth:
// pop the earliest event, release it, and schedule one a random delay
// later. Depth 64 is a machine's usual queue; 16,384 is the depth an
// exception flood reached when every pending disk writeback was its
// own event.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{64, 16384} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := NewRand(1)
			delays := make([]Cycles, 4096)
			for i := range delays {
				delays[i] = Cycles(1 + rng.Intn(1<<20))
			}
			fire := func() {}
			q := NewEventQueue()
			for i := 0; i < depth; i++ {
				q.Schedule(delays[i%len(delays)], "hold", fire)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				e := q.Pop()
				at := e.At
				q.Release(e)
				q.Schedule(at+delays[i%len(delays)], "hold", fire)
			}
		})
	}
}
