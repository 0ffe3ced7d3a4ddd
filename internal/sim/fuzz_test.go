package sim

import (
	"cmp"
	"slices"
	"testing"
)

// refEvent is one pending event in the reference queue: a plain slice
// kept sorted by (at, order), where order is the event's insertion
// order (for a reserved event, the order of its Reserve call).
type refEvent struct {
	at    Cycles
	order uint64
	kind  string
	tag   uint64
	ev    *Event
}

// refQueue is the naive reference FuzzEventQueue checks EventQueue
// against.
type refQueue []refEvent

func (r *refQueue) add(x refEvent) {
	i, _ := slices.BinarySearchFunc(*r, x, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.order, b.order))
	})
	*r = slices.Insert(*r, i, x)
}

func (r refQueue) nonTimer() int {
	n := 0
	for _, x := range r {
		if x.kind != KindTimer {
			n++
		}
	}
	return n
}

// Fuzz opcodes: each op is two bytes, an opcode and an argument.
const (
	fqSchedule = iota
	fqScheduleTagged
	fqCancel
	fqPop
	fqReserve
	fqScheduleReserved
	fqRestore
	fqOpCount

	fqMaxOps = 512
)

var fqKinds = [...]string{KindTimer, "wake", "disk-write"}

// FuzzEventQueue runs a decoded sequence of queue operations against
// the typed heap and a sorted reference slice: Schedule and
// ScheduleTagged at tied times and mixed kinds (timer ticks
// included), Cancel of a live event, Pop (firing and releasing the
// event), Reserve and a later ScheduleReserved at the reserved
// number, and a Snapshot restored into a fresh queue that carries on
// in its place. After every operation the queue's Len, PeekTime and
// PendingNonTimer must match the reference, and every pop must return
// the reference's earliest (At, Kind, Tag) with the right callback.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 3, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 0, 0, 9, 4, 0, 5, 2, 5, 2, 3, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 2, 1, 6, 0, 0, 1, 3, 0, 2, 0, 6, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 0, 1, 7, 6, 0, 5, 7, 1, 7, 3, 0, 3, 0, 6, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewEventQueue()
		var ref refQueue
		// reserved holds each Reserve call's number and insertion
		// order, oldest first, until ScheduleReserved uses it.
		type reservation struct{ seq, order uint64 }
		var reserved []reservation
		var now Cycles
		var nextTag, order uint64
		var fired uint64 // tag of the last callback that ran
		fireTag := func(tag uint64) func() { return func() { fired = tag } }

		for n := 0; len(data) >= 2 && n < fqMaxOps; n++ {
			code, arg := data[0]%fqOpCount, data[1]
			data = data[2:]
			// Times cluster in a window of eight, so ties are common.
			at := now + Cycles(arg%8)
			kind := fqKinds[int(arg/8)%len(fqKinds)]
			switch code {
			case fqSchedule, fqScheduleTagged:
				nextTag++
				order++
				var e *Event
				if code == fqSchedule {
					e = q.Schedule(at, kind, fireTag(0))
					ref.add(refEvent{at: at, order: order, kind: kind, ev: e})
				} else {
					e = q.ScheduleTagged(at, kind, nextTag, fireTag(nextTag))
					ref.add(refEvent{at: at, order: order, kind: kind, tag: nextTag, ev: e})
				}
			case fqCancel:
				if len(ref) == 0 {
					continue
				}
				i := int(arg) % len(ref)
				e := ref[i].ev
				q.Cancel(e)
				if !e.Cancelled() {
					t.Fatalf("op %d: cancelled event not marked cancelled", n)
				}
				ref = slices.Delete(ref, i, i+1)
			case fqPop:
				e := q.Pop()
				if len(ref) == 0 {
					if e != nil {
						t.Fatalf("op %d: Pop on an empty queue returned %+v", n, e)
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if e == nil || e.At != want.at || e.Kind != want.kind || e.Tag != want.tag {
					t.Fatalf("op %d: Pop = %+v, want at=%d kind=%q tag=%d", n, e, want.at, want.kind, want.tag)
				}
				if !e.Cancelled() {
					t.Fatalf("op %d: popped event still reads as pending", n)
				}
				fired = ^uint64(0)
				e.Fire()
				if fired != want.tag {
					t.Fatalf("op %d: popped event ran the callback of tag %d, want %d", n, fired, want.tag)
				}
				q.Release(e)
				now = want.at
			case fqReserve:
				order++
				reserved = append(reserved, reservation{seq: q.Reserve(), order: order})
			case fqScheduleReserved:
				if len(reserved) == 0 {
					continue
				}
				r := reserved[0]
				reserved = reserved[1:]
				nextTag++
				e := q.ScheduleReserved(at, r.seq, kind, nextTag, fireTag(nextTag))
				ref.add(refEvent{at: at, order: r.order, kind: kind, tag: nextTag, ev: e})
			case fqRestore:
				img := q.Snapshot()
				if len(img.Events) != len(ref) {
					t.Fatalf("op %d: snapshot holds %d events, want %d", n, len(img.Events), len(ref))
				}
				for i, ei := range img.Events {
					if w := ref[i]; ei.At != w.at || ei.Kind != w.kind || ei.Tag != w.tag {
						t.Fatalf("op %d: snapshot event %d = %+v, want at=%d kind=%q tag=%d", n, i, ei, w.at, w.kind, w.tag)
					}
				}
				fresh := NewEventQueue()
				events := fresh.RestoreInto(img, func(_ string, tag uint64) func() { return fireTag(tag) })
				for i, e := range events {
					ref[i].ev = e
				}
				q = fresh
			}
			checkAgainstRef(t, n, q, ref)
		}
	})
}

func checkAgainstRef(t *testing.T, n int, q *EventQueue, ref refQueue) {
	t.Helper()
	if q.Len() != len(ref) {
		t.Fatalf("op %d: Len = %d, want %d", n, q.Len(), len(ref))
	}
	if got, want := q.PendingNonTimer(), ref.nonTimer(); got != want {
		t.Fatalf("op %d: PendingNonTimer = %d, want %d", n, got, want)
	}
	at, ok := q.PeekTime()
	if ok != (len(ref) > 0) || ok && at != ref[0].at {
		t.Fatalf("op %d: PeekTime = %d,%v, want the reference's earliest of %d events", n, at, ok, len(ref))
	}
}
