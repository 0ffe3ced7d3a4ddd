// Package sim provides the deterministic discrete-event simulation
// substrate: a virtual clock measured in CPU cycles, an event queue,
// and a seeded random source. Everything above this package (CPU,
// kernel, scheduler, workloads) advances time exclusively through
// these primitives, which is what makes whole-machine runs
// reproducible bit-for-bit across hosts.
package sim

import (
	"fmt"
	"time"
)

// Cycles is a quantity of virtual CPU cycles. The simulated machine's
// TSC (time stamp counter) is a running total of Cycles.
type Cycles uint64

// Hz is a clock frequency in cycles per second.
type Hz uint64

// DefaultCPUHz matches the paper's testbed: an Intel E7200 at 2.53 GHz
// with one core disabled.
const DefaultCPUHz Hz = 2_530_000_000

// Clock converts between virtual cycles and virtual wall time for a
// fixed frequency, and tracks the current virtual now.
type Clock struct {
	freq Hz
	now  Cycles
}

// NewClock returns a clock running at freq cycles per second,
// starting at cycle zero.
func NewClock(freq Hz) *Clock {
	if freq == 0 {
		freq = DefaultCPUHz
	}
	return &Clock{freq: freq}
}

// Freq reports the clock frequency in cycles per second.
func (c *Clock) Freq() Hz { return c.freq }

// Now returns the current virtual time in cycles since boot.
func (c *Clock) Now() Cycles { return c.now }

// Advance moves virtual time forward by d cycles.
func (c *Clock) Advance(d Cycles) { c.now += d }

// AdvanceTo moves virtual time forward to t. It panics if t is in the
// past: the event loop must never run time backwards, and doing so
// indicates a corrupted event queue rather than a recoverable error.
func (c *Clock) AdvanceTo(t Cycles) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moving backwards: now=%d target=%d", c.now, t))
	}
	c.now = t
}

// Clone returns an independent clock at the same frequency and
// current time (checkpoint restore).
func (c *Clock) Clone() *Clock {
	cp := *c
	return &cp
}

// Seconds converts a cycle count to virtual seconds at this clock's
// frequency.
func (c *Clock) Seconds(d Cycles) float64 {
	return float64(d) / float64(c.freq)
}

// Duration converts a cycle count to a time.Duration of virtual time.
func (c *Clock) Duration(d Cycles) time.Duration {
	sec := float64(d) / float64(c.freq)
	return time.Duration(sec * float64(time.Second))
}

// CyclesOf converts a virtual duration to cycles at this clock's
// frequency.
func (c *Clock) CyclesOf(d time.Duration) Cycles {
	return Cycles(d.Seconds() * float64(c.freq))
}
