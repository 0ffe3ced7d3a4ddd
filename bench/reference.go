package main

import "time"

// refLoop is the yardstick pass_ref is measured in: a fixed
// computation of the benchmark's own, not the simulator's, run in
// chunks between a pass's laps. It is a small discrete-event loop — pop
// the earliest of 4096 events, look its task up in a map, charge the
// task, push the event back — over about 2.5 MB, the same kind of work
// the simulator does, so other tenants of a shared host slow it much as
// they slow a pass. Each chunk first reads its whole working set,
// untimed, so what the lap before it left in the caches does not change
// its time; and it allocates nothing once built, so the simulator's
// garbage does not either.
type refLoop struct {
	events []refEvent // a binary min-heap on at
	tasks  []refTask
	index  map[int]int // task key to index into tasks
	x      uint64      // xorshift state
	sink   uint64      // keeps warm's reads from being optimised away
}

type refEvent struct {
	at   uint64
	task int
}

type refTask struct {
	used uint64
	hist [64]uint64
}

const (
	refTasks       = 4096
	refChunkEvents = 3000 // events per chunk: about a third of a millisecond
)

// refChunkNominal converts a time in reference chunks to seconds, for
// setup_s: about a chunk's time on a lightly loaded 2-vCPU Xeon KVM
// guest. Only its being fixed matters.
const refChunkNominal = 300 * time.Microsecond

func newRefLoop() *refLoop {
	r := &refLoop{tasks: make([]refTask, refTasks), index: make(map[int]int, refTasks), x: 88172645463325252}
	for i := 0; i < refTasks; i++ {
		r.events = append(r.events, refEvent{at: uint64(i), task: i * 7919})
		r.index[i*7919] = i
	}
	return r
}

// chunk runs one chunk of the loop and returns its host time.
func (r *refLoop) chunk() time.Duration {
	r.warm()
	start := time.Now()
	for n := 0; n < refChunkEvents; n++ {
		r.x ^= r.x << 13
		r.x ^= r.x >> 7
		r.x ^= r.x << 17
		e := &r.events[0]
		t := &r.tasks[r.index[e.task]]
		d := r.x % 1000
		t.used += d
		t.hist[r.x%64] = d
		e.at += d + 1
		r.siftDown()
	}
	return time.Since(start)
}

// warm reads every cache line of the working set a chunk can touch.
func (r *refLoop) warm() {
	var s uint64
	for i := range r.tasks {
		t := &r.tasks[i]
		for j := 0; j < len(t.hist); j += 8 {
			s += t.hist[j]
		}
	}
	for _, e := range r.events {
		s += uint64(r.index[e.task])
	}
	r.sink += s
}

// siftDown restores the heap after the earliest event moved later.
func (r *refLoop) siftDown() {
	h := r.events
	i := 0
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if c := m + 1; c < len(h) && h[c].at < h[m].at {
			m = c
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// laps interleaves the reference loop with a set-up's or a pass's work:
// after each lap — an artifact, a fork-sweep step or variant, a slice
// of a storm's virtual time — reference chunks run until they add up to
// refShare of the work time so far, and at least one. Each lap's time
// is divided by the mean time of the chunks right after it, so a lap is
// measured against the host's speed when it ran, and the chunks' time
// never counts as work.
type laps struct {
	ref        *refLoop
	last       time.Time
	work, refs time.Duration // since start: work time, chunk time
	chunks     int
	inRefs     []float64 // per lap: its time in reference chunks
}

// refShare is the share of the work time its reference chunks add up
// to: enough chunks for steady means, few enough to cost little.
const refShare = 0.01

func (l *laps) start() {
	l.work, l.refs, l.chunks, l.inRefs = 0, 0, 0, nil
	l.last = time.Now()
}

// mark ends the current lap and runs its reference chunks. It is a
// no-op on nil laps, which the golden test's passes use.
func (l *laps) mark() {
	if l == nil {
		return
	}
	lap := time.Since(l.last)
	l.work += lap
	var refs time.Duration
	n := 0
	for n == 0 || (l.refs+refs).Seconds() < refShare*l.work.Seconds() {
		refs += l.ref.chunk()
		n++
	}
	l.refs += refs
	l.chunks += n
	l.inRefs = append(l.inRefs, lap.Seconds()*float64(n)/refs.Seconds())
	l.last = time.Now()
}
