package sim

import "sort"

// Event is a callback scheduled to fire at a virtual time. Events
// with equal times fire in insertion order (stable), which keeps the
// simulation deterministic regardless of map iteration or host
// scheduling.
//
// Events may be recycled through the queue's free list (see Release),
// so holders must drop their reference once an event has fired;
// Cancel is only valid for events still pending in the queue.
type Event struct {
	At   Cycles
	Kind string // diagnostic label, e.g. "timer", "nic-rx"
	Fire func()
	// Tag disambiguates events of one Kind for checkpoint restore: a
	// snapshot records (Kind, Tag) and the restore path rebuilds the
	// Fire closure from them (e.g. Kind "sleep-wake" + Tag pid). Zero
	// for singleton kinds.
	Tag uint64

	index int // heap index; -1 once popped or cancelled
}

// Cancelled reports whether the event has been removed from the queue
// (either fired or cancelled).
func (e *Event) Cancelled() bool { return e.index < 0 }

// KindTimer is the diagnostic kind of the periodic timer tick. The
// queue counts these separately: a machine whose only pending events
// are its own ticks can never make progress by itself (ticks wake
// nothing), which is how a cluster distinguishes "idle until the next
// wake/disk/packet event" from "stalled waiting for network input".
const KindTimer = "timer"

// EventQueue is a deterministic priority queue of events ordered by
// virtual time, breaking ties by insertion order. It is a binary
// min-heap of entries that carry their (time, sequence) key inline,
// so a sift compares keys without touching the events, and PeekTime
// reads the root's key. A free list recycles popped events so
// steady-state scheduling does not allocate.
//
// A caller that keeps its own time-ordered backlog can leave all but
// the backlog's head out of the queue: Reserve draws each item's
// sequence number when the item is created, and ScheduleReserved
// enters the head at that number, so it fires exactly where a
// Schedule call made at Reserve time would have. The disk's
// writeback FIFO works this way.
type EventQueue struct {
	h      eventHeap
	seq    uint64
	free   []*Event
	timers int // pending events whose Kind is KindTimer
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	return &EventQueue{}
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Schedule enqueues fn to run at time at with a diagnostic kind label,
// returning the event so the caller can cancel it. The event is drawn
// from the free list when one is available.
func (q *EventQueue) Schedule(at Cycles, kind string, fn func()) *Event {
	return q.ScheduleTagged(at, kind, 0, fn)
}

// ScheduleTagged is Schedule with a restore tag (see Event.Tag).
func (q *EventQueue) ScheduleTagged(at Cycles, kind string, tag uint64, fn func()) *Event {
	return q.insert(at, kind, tag, q.Reserve(), fn)
}

// Reserve draws the next insertion sequence number without scheduling
// anything. Pass it to ScheduleReserved later; each number is used at
// most once.
func (q *EventQueue) Reserve() uint64 {
	q.seq++
	return q.seq
}

// ScheduleReserved is ScheduleTagged at a sequence number drawn
// earlier from Reserve: the event ties with equal-time events as if
// it had been scheduled when the number was reserved.
func (q *EventQueue) ScheduleReserved(at Cycles, seq uint64, kind string, tag uint64, fn func()) *Event {
	return q.insert(at, kind, tag, seq, fn)
}

// insert enqueues an event with an explicit sequence number, drawing
// from the free list when possible.
func (q *EventQueue) insert(at Cycles, kind string, tag, seq uint64, fn func()) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.At, e.Kind, e.Fire, e.Tag = at, kind, fn, tag
	} else {
		e = &Event{At: at, Kind: kind, Fire: fn, Tag: tag}
	}
	q.h = append(q.h, entry{})
	q.h.up(len(q.h)-1, entry{at: at, seq: seq, e: e})
	if kind == KindTimer {
		q.timers++
	}
	return e
}

// PendingNonTimer reports how many pending events are anything other
// than the periodic timer tick. Zero means the queue holds nothing
// that could ever change task state on its own.
func (q *EventQueue) PendingNonTimer() int { return len(q.h) - q.timers }

// Release returns a fired (or cancelled) event to the free list for
// reuse by a later Schedule. Releasing an event that is back in the
// queue — its Fire rescheduled it — is a no-op, as is releasing nil.
// After Release the caller must drop its reference: the event will be
// handed out again and Cancel on a stale reference would remove the
// wrong entry.
func (q *EventQueue) Release(e *Event) {
	if e == nil || e.index >= 0 {
		return
	}
	e.Fire = nil
	q.free = append(q.free, e)
}

// Cancel removes e from the queue and returns it to the free list for
// reuse by a later Schedule, so start/stop cycles (NIC.StopFlood)
// allocate nothing in steady state. Cancelling an already-fired or
// already-cancelled event is a no-op. After Cancel the caller must
// drop its reference, exactly as after Release.
func (q *EventQueue) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	q.h.remove(e.index)
	e.index = -1
	e.Fire = nil
	if e.Kind == KindTimer {
		q.timers--
	}
	q.free = append(q.free, e)
}

// PeekTime returns the time of the earliest pending event. ok is
// false when the queue is empty.
func (q *EventQueue) PeekTime() (at Cycles, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Pop removes and returns the earliest event, or nil when empty.
func (q *EventQueue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := q.h.remove(0)
	e.index = -1
	if e.Kind == KindTimer {
		q.timers--
	}
	return e
}

// EventImage is one pending event's serialisable identity: everything
// but the Fire closure, which a restore rebuilds from (Kind, Tag).
// Seq is preserved exactly because same-time events fire in sequence
// order — a restored queue must replay the identical tie-breaks.
type EventImage struct {
	At   Cycles
	Kind string
	Tag  uint64
	Seq  uint64
}

// QueueImage is an EventQueue's full serialisable state.
type QueueImage struct {
	// Events are the pending events in firing order.
	Events []EventImage
	// Seq is the queue's insertion counter: the next Schedule call on
	// a restored queue draws Seq+1, exactly as the original would.
	Seq uint64
	// FreeLen is the free-list population. Free events hold no live
	// state; restoring the count keeps a restored machine's allocation
	// behaviour aligned with the original's.
	FreeLen int
}

// Snapshot captures the queue's pending events (in firing order), its
// insertion counter, and its free-list population.
func (q *EventQueue) Snapshot() QueueImage {
	img := QueueImage{Seq: q.seq, FreeLen: len(q.free)}
	img.Events = make([]EventImage, len(q.h))
	for i, x := range q.h {
		img.Events[i] = EventImage{At: x.at, Kind: x.e.Kind, Tag: x.e.Tag, Seq: x.seq}
	}
	sort.Slice(img.Events, func(i, j int) bool {
		if img.Events[i].At != img.Events[j].At {
			return img.Events[i].At < img.Events[j].At
		}
		return img.Events[i].Seq < img.Events[j].Seq
	})
	return img
}

// RestoreInto rebuilds this (empty) queue from an image: each pending
// event is re-created with its exact original sequence number and the
// Fire closure the resolver returns for its (Kind, Tag). The heap's
// internal layout may differ from the original's, but pops compare
// (At, Seq) — a strict total order — so firing order is identical.
// The restored events are returned aligned with img.Events so callers
// can re-wire held event pointers (e.g. a NIC's pending rx event).
func (q *EventQueue) RestoreInto(img QueueImage, resolve func(kind string, tag uint64) func()) []*Event {
	out := make([]*Event, len(img.Events))
	for i, ei := range img.Events {
		out[i] = q.insert(ei.At, ei.Kind, ei.Tag, ei.Seq, resolve(ei.Kind, ei.Tag))
	}
	q.seq = img.Seq
	for len(q.free) < img.FreeLen {
		q.free = append(q.free, &Event{index: -1})
	}
	return out
}

// Reset empties the queue for reuse, moving pending events to the
// free list and zeroing the counters while keeping the heap's and
// free list's capacity — the restore-into-recycled-machine path uses
// it so rebuilding a queue allocates no fresh events.
func (q *EventQueue) Reset() {
	for _, x := range q.h {
		x.e.index = -1
		x.e.Fire = nil
		q.free = append(q.free, x.e)
	}
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
	q.timers = 0
}

// entry is one heap slot: an event with its (time, sequence) key
// copied inline.
type entry struct {
	at  Cycles
	seq uint64
	e   *Event
}

// before orders by time, then by sequence: a strict total order, so
// the pop order does not depend on the heap's layout.
func (x entry) before(y entry) bool {
	return x.at < y.at || x.at == y.at && x.seq < y.seq
}

// eventHeap is a binary min-heap of entries ordered by before. Its
// sifts move entries into a hole instead of swapping, and keep each
// event's index current for Cancel.
type eventHeap []entry

// up sifts x upward from the hole at j and stores it where it stops.
func (h eventHeap) up(j int, x entry) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !x.before(h[i]) {
			break
		}
		h[j] = h[i]
		h[j].e.index = j
		j = i
	}
	h[j] = x
	x.e.index = j
}

// down sifts x downward from the hole at i, stores it where it stops,
// and returns that index.
func (h eventHeap) down(i int, x entry) int {
	n := len(h)
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(x) {
			break
		}
		h[i] = h[j]
		h[i].e.index = i
		i = j
	}
	h[i] = x
	x.e.index = i
	return i
}

// remove takes the event at index i out of the heap, restores the
// heap order, and returns the event.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	e, last := old[i].e, old[n]
	old[n] = entry{}
	*h = old[:n]
	if i < n && h.down(i, last) == i {
		h.up(i, last)
	}
	return e
}
