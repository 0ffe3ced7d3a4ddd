package device

import (
	"math/bits"

	"repro/internal/sim"
)

// Backlog is a FIFO of pending completions for an owner that keeps
// only the head in its event queue. Each item is the (time, sequence
// number) pair its event fires at, the number drawn from
// sim.EventQueue.Reserve when the item was submitted. Items are pushed
// in firing order, so the head is always the next to fire, and the
// owner enters each new head in the queue at its own key: every item
// then fires exactly where a separately scheduled event would. The
// disk's writeback FIFO and a swap host's remote I/O work this way.
//
// The FIFO is a ring of power-of-two capacity that doubles when full,
// so pushing and popping allocate nothing once it has grown.
type Backlog struct {
	ring []Pending
	head int
	n    int
}

// Pending is one backlogged completion's event key.
type Pending struct {
	At  sim.Cycles
	Seq uint64
}

// Len reports the pending items, the head included.
func (b *Backlog) Len() int { return b.n }

// Head returns the next item to fire. The backlog must not be empty.
func (b *Backlog) Head() Pending { return b.ring[b.head] }

// Tail returns the last item pushed. The backlog must not be empty.
func (b *Backlog) Tail() Pending { return b.ring[(b.head+b.n-1)&(len(b.ring)-1)] }

// Push appends an item, doubling the ring when it is full. The item
// must not fire before the tail.
func (b *Backlog) Push(p Pending) {
	if b.n == len(b.ring) {
		b.relayout(ringCap(b.n + 1))
	}
	b.ring[(b.head+b.n)&(len(b.ring)-1)] = p
	b.n++
}

// Pop removes the head. The backlog must not be empty.
func (b *Backlog) Pop() {
	b.head = (b.head + 1) & (len(b.ring) - 1)
	b.n--
}

// Clone returns an independent copy for a checkpoint; an empty
// backlog copies as an empty one with no ring.
func (b *Backlog) Clone() Backlog {
	if b.n == 0 {
		return Backlog{}
	}
	// relayout copies out of the shared ring into the copy's own.
	c := *b
	c.relayout(ringCap(b.n))
	return c
}

// ringCap returns the ring capacity for n items: the least power of
// two that is at least n.
func ringCap(n int) int { return 1 << bits.Len(uint(n-1)) }

// relayout moves the items into a new ring of capacity n, starting at
// index 0.
func (b *Backlog) relayout(n int) {
	buf := make([]Pending, n)
	for i := range b.n {
		buf[i] = b.ring[(b.head+i)&(len(b.ring)-1)]
	}
	b.ring, b.head = buf, 0
}
