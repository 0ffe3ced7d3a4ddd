package sim

import (
	"math/rand" //simlint:wallclock-ok the reference Int63n, fed the same seeded source
	"testing"
)

// TestInt63nMatchesMathRand pins Rand.Int63n to math/rand's algorithm:
// over many seeds and bounds — small and large, powers of two and
// bounds above 2^62, where the rejection loop runs most — both draw
// the same values from the same splitmix64 state.
func TestInt63nMatchesMathRand(t *testing.T) {
	bounds := []int64{1, 2, 3, 7, 64, 100, 1000, 65536, 1_000_000, 1<<31 - 1, 1 << 40, 1<<62 - 1, 1 << 62, 1<<62 + 1, 3 << 61, 1<<63 - 1}
	for seed := int64(-3); seed < 40; seed++ {
		got, src := NewRand(seed), &source{state: uint64(seed)}
		want := rand.New(src)
		for i := 0; i < 200; i++ {
			n := bounds[i%len(bounds)]
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, math/rand draws %d", seed, i, n, g, w)
			}
		}
		if got.State() != src.state {
			t.Fatalf("seed %d: state %#x after the draws, math/rand's source is at %#x", seed, got.State(), src.state)
		}
	}
}

// TestInt63nPanicsOnNonPositive pins math/rand's panic on an empty
// range.
func TestInt63nPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int64{0, -1, -1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int63n(%d) did not panic", n)
				}
			}()
			NewRand(1).Int63n(n)
		}()
	}
}
