package sim

import "math/rand" //simlint:wallclock-ok deterministic seeded source only; rand.New is fed the splitmix64 source below

// Rand wraps a seeded deterministic source. All stochastic behaviour
// in the simulator (packet inter-arrival jitter, address selection,
// workload shuffling) must draw from one of these so runs replay
// exactly given the same seed.
type Rand struct {
	*rand.Rand
	// src is the generator behind Rand. Retaining it makes the
	// stream's entire mutable state (8 bytes) observable, which is
	// what lets a machine checkpoint capture and replay it exactly.
	src *source
}

// source is a splitmix64 generator: 8 bytes of state versus
// math/rand's ~5 KB lagged-Fibonacci table, which was the largest
// single allocation in machine construction. Output is a fixed
// function of the seed, so histories replay bit-for-bit across hosts.
type source struct {
	state uint64
}

func (s *source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *source) Seed(seed int64) { s.state = uint64(seed) }

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	src := &source{state: uint64(seed)}
	return &Rand{Rand: rand.New(src), src: src}
}

// State returns the stream's entire mutable state: the splitmix64
// counter. Two streams with equal state produce identical draws
// forever.
func (r *Rand) State() uint64 { return r.src.state }

// SetState overwrites the stream's state, aligning it with another
// stream's State() so the two replay identically from here on.
func (r *Rand) SetState(s uint64) { r.src.state = s }

// Clone returns an independent stream positioned at the same state:
// the clone and the original draw the same future values but do not
// affect each other.
func (r *Rand) Clone() *Rand {
	c := NewRand(0)
	c.src.state = r.src.state
	return c
}

// Int63n returns a value in [0, n) and panics if n <= 0. It is
// math/rand's algorithm drawing straight from the splitmix64 source,
// so every draw matches rand.Rand.Int63n's without its interface call.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is a power of two, can mask
		return r.src.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.src.Int63()
	for v > limit {
		v = r.src.Int63()
	}
	return v % n
}

// Jitter returns a value in [base - spread/2, base + spread/2),
// clamped at zero. It is used for event inter-arrival perturbation.
func (r *Rand) Jitter(base, spread Cycles) Cycles {
	if spread == 0 {
		return base
	}
	off := Cycles(r.Int63n(int64(spread)))
	lo := base - spread/2
	if base < spread/2 {
		lo = 0
	}
	return lo + off
}
