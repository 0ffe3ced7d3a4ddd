package device

import (
	"slices"
	"testing"
)

// drrFlows bounds the flow ids FuzzDRR draws, so flows collide often.
const drrFlows = 8

// refDRR is the naive reference FuzzDRR checks DRR against: one plain
// slice and one deficit per flow, and the active flows in a slice whose
// head is served next.
type refDRR struct {
	quantum uint64
	q       [drrFlows][]QdiscEntry
	deficit [drrFlows]uint64
	ring    []uint32
}

func (r *refDRR) clone() *refDRR {
	c := *r
	for f := range c.q {
		c.q[f] = slices.Clone(r.q[f])
	}
	c.ring = slices.Clone(r.ring)
	return &c
}

// size reports the queued entries and their wire bytes.
func (r *refDRR) size() (n int, bytes uint64) {
	for _, q := range r.q {
		n += len(q)
		for _, e := range q {
			bytes += e.Cost
		}
	}
	return n, bytes
}

func (r *refDRR) enqueue(e QdiscEntry) {
	f := e.F.Flow
	if len(r.q[f]) == 0 {
		r.deficit[f] = 0
		r.ring = append(r.ring, f)
	}
	r.q[f] = append(r.q[f], e)
}

// leave takes emptied flow f out of the ring, forfeiting its deficit.
func (r *refDRR) leave(f uint32) {
	r.deficit[f] = 0
	r.ring = slices.DeleteFunc(r.ring, func(g uint32) bool { return g == f })
}

// dequeue serves the ring head once its deficit covers its head entry,
// and otherwise grants it a quantum and moves it to the tail.
func (r *refDRR) dequeue() (QdiscEntry, bool) {
	for len(r.ring) > 0 {
		f := r.ring[0]
		e := r.q[f][0]
		if r.deficit[f] < e.Cost {
			r.deficit[f] += r.quantum
			r.ring = append(r.ring[1:], f)
			continue
		}
		r.q[f] = r.q[f][1:]
		r.deficit[f] -= e.Cost
		if len(r.q[f]) == 0 {
			r.leave(f)
		}
		return e, true
	}
	return QdiscEntry{}, false
}

// longest names the active flow with the most queued bytes, the first
// in ring order on a tie.
func (r *refDRR) longest() (uint32, bool) {
	var best uint32
	var bestBytes uint64
	found := false
	for _, f := range r.ring {
		var b uint64
		for _, e := range r.q[f] {
			b += e.Cost
		}
		if !found || b > bestBytes {
			best, bestBytes, found = f, b, true
		}
	}
	return best, found
}

func (r *refDRR) steal(f uint32) (QdiscEntry, bool) {
	n := len(r.q[f])
	if n == 0 {
		return QdiscEntry{}, false
	}
	e := r.q[f][n-1]
	r.q[f] = r.q[f][:n-1]
	if n == 1 {
		r.leave(f)
	}
	return e, true
}

// expire removes the dead entries, flows in ring order and each flow
// in FIFO order, and returns them in that order.
func (r *refDRR) expire(dead func(QdiscEntry) bool) []QdiscEntry {
	var out []QdiscEntry
	for _, f := range slices.Clone(r.ring) {
		var kept []QdiscEntry
		for _, e := range r.q[f] {
			if dead(e) {
				out = append(out, e)
			} else {
				kept = append(kept, e)
			}
		}
		r.q[f] = kept
		if len(kept) == 0 {
			r.leave(f)
		}
	}
	return out
}

// FuzzDRR opcodes. An input is the quantum (two bytes, little endian)
// followed by ops: drrEnqueue takes a flow byte and a two-byte cost
// (low 11 bits), drrSteal and drrExpire take one byte, the rest none.
const (
	drrEnqueue = iota
	drrDequeue
	drrSteal // arg bit 0 clear: LongestFlow then StealFrom it; set: StealFrom flow arg>>1
	drrExpire
	drrClone
	drrOpCount

	drrMaxOps = 512
)

// drrSeed builds FuzzDRR inputs for the corpus.
type drrSeed []byte

func newDRRSeed(quantum uint64) drrSeed { return drrSeed{byte(quantum), byte(quantum >> 8)} }

func (s drrSeed) enq(flow uint32, cost uint64, n int) drrSeed {
	for range n {
		s = append(s, drrEnqueue, byte(flow), byte(cost), byte(cost>>8))
	}
	return s
}

func (s drrSeed) op(op byte, n int) drrSeed {
	for range n {
		s = append(s, op)
	}
	return s
}

// FuzzDRR runs a decoded sequence of Enqueue, Dequeue, LongestFlow with
// StealFrom, Expire (by tag parity) and Clone against refDRR. Every
// enqueue carries a fresh tag, so each entry a call returns must be the
// reference's exactly, and Len and Bytes must match after every op. A
// Clone continues the run on the clone; each original left behind must
// still drain like the reference copied at that point, so a clone that
// shares state with its original shows.
func FuzzDRR(f *testing.F) {
	// The cases of qdisc_test.go, then a clone taken mid-backlog.
	f.Add([]byte(newDRRSeed(1514).enq(1, 1500, 10).enq(2, 84, 10).op(drrDequeue, 10)))
	fifo := newDRRSeed(200)
	for range 5 {
		fifo = fifo.enq(7, 100, 1).enq(1, 100, 1)
	}
	f.Add([]byte(fifo.op(drrDequeue, 11)))
	f.Add([]byte(append(newDRRSeed(1514).enq(1, 1500, 2).enq(2, 84, 1),
		drrSteal, 0, drrDequeue, drrDequeue, drrSteal, 5)))
	f.Add([]byte(append(newDRRSeed(200).enq(1, 100, 2).enq(2, 84, 2).enq(3, 84, 1),
		drrExpire, 1, drrDequeue, drrDequeue, drrExpire, 0, drrEnqueue, 2, 84, 0, drrDequeue)))
	f.Add([]byte(append(newDRRSeed(300).enq(1, 1500, 3).enq(2, 84, 4).op(drrDequeue, 2),
		drrClone, drrDequeue, drrEnqueue, 3, 200, 0, drrSteal, 0, drrExpire, 0, drrDequeue)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		quantum := uint64(data[0]) | uint64(data[1])<<8
		d := NewDRR(quantum)
		ref := &refDRR{quantum: max(quantum, 1)}
		type pair struct {
			d   *DRR
			ref *refDRR
		}
		var left []pair // originals a Clone op left behind
		var tag uint32
		pos := 2
		arg := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			pos++
			return data[pos-1], true
		}
		check := func(what string, i int, got, want QdiscEntry, gotOK, wantOK bool) {
			if got != want || gotOK != wantOK {
				t.Fatalf("%s %d = %+v, %v; reference %+v, %v", what, i, got, gotOK, want, wantOK)
			}
		}
		for n := 0; pos < len(data) && n < drrMaxOps; n++ {
			switch data[pos] % drrOpCount {
			case drrEnqueue:
				pos++
				flow, ok1 := arg()
				lo, ok2 := arg()
				hi, ok3 := arg()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				e := QdiscEntry{F: Frame{Flow: uint32(flow) % drrFlows}, Cost: uint64(lo) | uint64(hi&7)<<8, Tag: tag}
				tag++
				d.Enqueue(e)
				ref.enqueue(e)
			case drrDequeue:
				pos++
				got, ok := d.Dequeue()
				want, wantOK := ref.dequeue()
				check("Dequeue at op", n, got, want, ok, wantOK)
			case drrSteal:
				pos++
				a, ok := arg()
				if !ok {
					return
				}
				flow := uint32(a>>1) % drrFlows
				if a&1 == 0 {
					hog, ok := d.LongestFlow()
					want, wantOK := ref.longest()
					if hog != want || ok != wantOK {
						t.Fatalf("op %d LongestFlow = %d, %v; reference %d, %v", n, hog, ok, want, wantOK)
					}
					flow = hog
				}
				got, ok := d.StealFrom(flow)
				want, wantOK := ref.steal(flow)
				check("StealFrom at op", n, got, want, ok, wantOK)
			case drrExpire:
				pos++
				a, ok := arg()
				if !ok {
					return
				}
				dead := func(e QdiscEntry) bool { return e.Tag%2 == uint32(a%2) }
				var got []QdiscEntry
				removed := d.Expire(dead, func(e QdiscEntry) { got = append(got, e) })
				want := ref.expire(dead)
				if removed != len(got) || !slices.Equal(got, want) {
					t.Fatalf("op %d Expire removed %d, observed %+v; reference %+v", n, removed, got, want)
				}
			case drrClone:
				pos++
				left = append(left, pair{d, ref.clone()})
				d = d.Clone()
			}
			if wantN, wantBytes := ref.size(); d.Len() != wantN || d.Bytes() != wantBytes {
				t.Fatalf("op %d: Len %d, Bytes %d; reference %d, %d", n, d.Len(), d.Bytes(), wantN, wantBytes)
			}
		}
		for k, p := range append(left, pair{d, ref}) {
			for {
				got, ok := p.d.Dequeue()
				want, wantOK := p.ref.dequeue()
				check("final Dequeue of scheduler", k, got, want, ok, wantOK)
				if !ok {
					break
				}
			}
		}
	})
}
