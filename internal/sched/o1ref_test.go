package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/proc"
	"repro/internal/sim"
)

// refO1 is the O(1) policy as a linear scan over per-level bucket
// slices: PickNext reads every bucket of the active array and, when
// it is empty, of the expired array too. It is the model
// FuzzO1MatchesReference holds O1 to, so it shares only Timeslice.
type refO1 struct {
	active, expired [][]*proc.Proc
	n               int
	timeslice       func(nice int) sim.Cycles
}

type refO1Data struct {
	queued    bool
	remaining sim.Cycles
	exhausted bool
}

func newRefO1(cyclesPerMs sim.Cycles) *refO1 {
	return &refO1{timeslice: NewO1(cyclesPerMs).Timeslice}
}

func (s *refO1) data(p *proc.Proc) *refO1Data {
	d, ok := p.SchedData.(*refO1Data)
	if !ok {
		d = &refO1Data{}
		p.SchedData = d
	}
	return d
}

func refPush(a *[][]*proc.Proc, idx int, p *proc.Proc) {
	for len(*a) <= idx {
		*a = append(*a, nil)
	}
	(*a)[idx] = append((*a)[idx], p)
}

// refCut deletes p from bucket idx, reporting whether it was present.
func refCut(a [][]*proc.Proc, idx int, p *proc.Proc) bool {
	if idx >= len(a) {
		return false
	}
	for i, t := range a[idx] {
		if t == p {
			a[idx] = slices.Delete(a[idx], i, i+1)
			return true
		}
	}
	return false
}

func (s *refO1) Enqueue(p *proc.Proc) {
	d := s.data(p)
	if d.queued {
		return
	}
	d.queued = true
	toExpired := false
	if d.remaining == 0 {
		d.remaining = s.timeslice(p.Nice())
		toExpired = d.exhausted
		d.exhausted = false
	}
	if toExpired {
		refPush(&s.expired, niceIndex(p.Nice()), p)
	} else {
		refPush(&s.active, niceIndex(p.Nice()), p)
	}
	s.n++
}

func (s *refO1) Remove(p *proc.Proc) {
	d := s.data(p)
	if !d.queued {
		return
	}
	idx := niceIndex(p.Nice())
	if !refCut(s.active, idx, p) && !refCut(s.expired, idx, p) {
		panic(fmt.Sprintf("refO1.Remove: pid %d absent at nice index %d", p.PID, idx))
	}
	d.queued = false
	s.n--
}

func (s *refO1) PickNext() *proc.Proc {
	for round := 0; round < 2; round++ {
		for idx, q := range s.active {
			if len(q) == 0 {
				continue
			}
			p := q[0]
			refCut(s.active, idx, p)
			s.data(p).queued = false
			s.n--
			return p
		}
		// Epoch boundary: expired becomes active.
		s.active, s.expired = s.expired, s.active
	}
	return nil
}

func (s *refO1) Quantum(p *proc.Proc) sim.Cycles {
	d := s.data(p)
	if d.remaining == 0 {
		d.remaining = s.timeslice(p.Nice())
	}
	return d.remaining
}

func (s *refO1) Charge(p *proc.Proc, c sim.Cycles) {
	d := s.data(p)
	if c >= d.remaining {
		if d.remaining > 0 {
			d.exhausted = true
		}
		d.remaining = 0
	} else {
		d.remaining -= c
	}
}

func (s *refO1) clone(pmap map[*proc.Proc]*proc.Proc) *refO1 {
	c := &refO1{n: s.n, timeslice: s.timeslice}
	//simlint:unordered-ok each task's slot is copied independently
	for p, cp := range pmap {
		if d, ok := p.SchedData.(*refO1Data); ok {
			dd := *d
			cp.SchedData = &dd
		}
	}
	arr := func(a [][]*proc.Proc) [][]*proc.Proc {
		out := make([][]*proc.Proc, len(a))
		for i, q := range a {
			for _, p := range q {
				out[i] = append(out[i], pmap[p])
			}
		}
		return out
	}
	c.active, c.expired = arr(s.active), arr(s.expired)
	return c
}

// fuzzNices spreads the fuzzed tasks over the whole nice range, with
// a few sharing a level so FIFO order within a level is exercised.
var fuzzNices = [16]int{-20, -20, -15, -9, -9, -4, 0, 0, 0, 3, 7, 7, 11, 15, 19, 19}

// FuzzO1MatchesReference decodes bytes into Enqueue, Remove,
// PickNext, Charge, Quantum, renice and Clone ops over 16 tasks and
// runs them on O1 and on the bucket-scan reference, each over its own
// proc set (both keep their state in proc.SchedData). Every pick,
// every quantum and the runnable count must agree after each op, and
// a final drain must pick the same tasks in the same order.
func FuzzO1MatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 3, 0, 0, 4, 0, 0, 15, 0, 3, 3, 250, 0, 3, 0, 2, 0, 0, 6, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 0, 0, 3, 1, 255, 0, 1, 0, 1, 2, 0, 5, 6, 0, 2, 0, 0, 6, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const cyclesPerMs = 1000
		var got, want [len(fuzzNices)]*proc.Proc
		for i, nice := range fuzzNices {
			got[i], want[i] = mk(i+1, nice), mk(i+1, nice)
		}
		var s Scheduler = NewO1(cyclesPerMs)
		ref := newRefO1(cyclesPerMs)
		pid := func(p *proc.Proc) int {
			if p == nil {
				return 0
			}
			return int(p.PID)
		}
		for k := 0; k+3 <= len(ops); k += 3 {
			op, i, arg := ops[k]%7, int(ops[k+1])%len(fuzzNices), ops[k+2]
			switch op {
			case 0:
				s.Enqueue(got[i])
				ref.Enqueue(want[i])
			case 1:
				s.Remove(got[i])
				ref.Remove(want[i])
			case 2:
				if g, w := s.PickNext(), ref.PickNext(); pid(g) != pid(w) {
					t.Fatalf("op %d: PickNext = pid %d, reference pid %d", k/3, pid(g), pid(w))
				}
			case 3:
				s.Charge(got[i], sim.Cycles(arg)*4000)
				ref.Charge(want[i], sim.Cycles(arg)*4000)
			case 4:
				if g, w := s.Quantum(got[i]), ref.Quantum(want[i]); g != w {
					t.Fatalf("op %d: Quantum(pid %d) = %d, reference %d", k/3, i+1, g, w)
				}
			case 5:
				// The kernel renices only the running task, which is
				// never queued.
				if d, ok := want[i].SchedData.(*refO1Data); !ok || !d.queued {
					nice := int(arg)%(proc.MaxNice-proc.MinNice+1) + proc.MinNice
					got[i].SetNice(nice)
					want[i].SetNice(nice)
				}
			case 6:
				gmap, wmap := map[*proc.Proc]*proc.Proc{}, map[*proc.Proc]*proc.Proc{}
				for j := range got {
					gc, wc := mk(j+1, got[j].Nice()), mk(j+1, want[j].Nice())
					gmap[got[j]], wmap[want[j]] = gc, wc
					got[j], want[j] = gc, wc
				}
				s, ref = s.Clone(gmap), ref.clone(wmap)
			}
			if s.Runnable() != ref.n {
				t.Fatalf("op %d: Runnable = %d, reference %d", k/3, s.Runnable(), ref.n)
			}
		}
		for {
			g, w := s.PickNext(), ref.PickNext()
			if pid(g) != pid(w) {
				t.Fatalf("drain: PickNext = pid %d, reference pid %d", pid(g), pid(w))
			}
			if g == nil {
				break
			}
		}
	})
}
