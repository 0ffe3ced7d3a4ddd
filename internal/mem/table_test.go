package mem

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refMemory is a map-per-space reference model of the paging
// semantics: one heap page record per touched page, an intrusive LRU,
// and a deep Clone through a page→copy map. The differential test
// drives it in lockstep with Memory.
type refMemory struct {
	totalFrames, usedFrames int
	lruHead, lruTail        *refPage
	spaces                  []*refSpace
	swapIns, swapOuts       uint64
}

type refSpace struct {
	mem                      *refMemory
	pages                    map[uint64]*refPage
	resident                 int
	minor, major, evictedOut uint64
	released                 bool
}

type refPage struct {
	space                   *refSpace
	vpage                   uint64
	present, swapped, dirty bool
	prev, next              *refPage
}

func (m *refMemory) newSpace() *refSpace {
	s := &refSpace{mem: m, pages: map[uint64]*refPage{}}
	m.spaces = append(m.spaces, s)
	return s
}

func (s *refSpace) touch(vpage uint64, write bool) FaultResult {
	m := s.mem
	p := s.pages[vpage]
	if p == nil {
		p = &refPage{space: s, vpage: vpage}
		s.pages[vpage] = p
	}
	if p.present {
		m.unlink(p)
		m.pushTail(p)
		p.dirty = p.dirty || write
		return FaultResult{Kind: NoFault}
	}
	res := FaultResult{Kind: MinorFault}
	if p.swapped {
		res.Kind, res.SwapIn = MajorFault, true
		m.swapIns++
		s.major++
	} else {
		s.minor++
	}
	for m.usedFrames >= m.totalFrames {
		v := m.lruHead
		m.unlink(v)
		res.Evictions++
		if v.dirty {
			m.swapOuts++
			res.SwapOuts++
		}
		v.present, v.swapped, v.dirty = false, true, false
		m.usedFrames--
		v.space.resident--
		v.space.evictedOut++
	}
	p.present, p.swapped, p.dirty = true, false, write
	m.usedFrames++
	s.resident++
	m.pushTail(p)
	return res
}

func (s *refSpace) release() {
	if s.released {
		return
	}
	for _, p := range s.pages {
		if p.present {
			s.mem.unlink(p)
			s.mem.usedFrames--
		}
	}
	s.pages, s.resident, s.released = nil, 0, true
}

func (m *refMemory) pushTail(p *refPage) {
	p.prev, p.next = m.lruTail, nil
	if m.lruTail != nil {
		m.lruTail.next = p
	} else {
		m.lruHead = p
	}
	m.lruTail = p
}

func (m *refMemory) unlink(p *refPage) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		m.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		m.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (m *refMemory) clone() *refMemory {
	cm := &refMemory{totalFrames: m.totalFrames, usedFrames: m.usedFrames, swapIns: m.swapIns, swapOuts: m.swapOuts}
	pmap := map[*refPage]*refPage{}
	for _, s := range m.spaces {
		cs := &refSpace{mem: cm, resident: s.resident, minor: s.minor, major: s.major, evictedOut: s.evictedOut, released: s.released}
		if s.pages != nil {
			cs.pages = map[uint64]*refPage{}
			for vp, p := range s.pages {
				cp := &refPage{space: cs, vpage: vp, present: p.present, swapped: p.swapped, dirty: p.dirty}
				cs.pages[vp] = cp
				pmap[p] = cp
			}
		}
		cm.spaces = append(cm.spaces, cs)
	}
	for p := m.lruHead; p != nil; p = p.next {
		cm.pushTail(pmap[p])
	}
	return cm
}

// lruOrder renders the recency list head→tail as "space:vpage" items,
// which fixes the future eviction order.
func lruOrder(m *Memory) string {
	out := ""
	for p := m.lruHead; p != nil; p = p.next {
		out += fmt.Sprintf("%d:%d ", p.space, p.vpage)
	}
	return out
}

func refLRUOrder(m *refMemory) string {
	idx := map[*refSpace]int{}
	for i, s := range m.spaces {
		idx[s] = i
	}
	out := ""
	for p := m.lruHead; p != nil; p = p.next {
		out += fmt.Sprintf("%d:%d ", idx[p.space], p.vpage)
	}
	return out
}

// diffState reports the first observable difference between the
// table-backed memory and the reference, or "".
func diffState(m *Memory, ref *refMemory) string {
	if len(m.spaces) != len(ref.spaces) {
		return fmt.Sprintf("spaces %d vs %d", len(m.spaces), len(ref.spaces))
	}
	if ins, outs := m.SwapTraffic(); ins != ref.swapIns || outs != ref.swapOuts {
		return fmt.Sprintf("swap traffic %d/%d vs %d/%d", ins, outs, ref.swapIns, ref.swapOuts)
	}
	if m.UsedFrames() != ref.usedFrames {
		return fmt.Sprintf("used frames %d vs %d", m.UsedFrames(), ref.usedFrames)
	}
	for i, s := range m.spaces {
		r := ref.spaces[i]
		minor, major := s.Faults()
		if minor != r.minor || major != r.major {
			return fmt.Sprintf("space %d faults %d/%d vs %d/%d", i, minor, major, r.minor, r.major)
		}
		if s.Resident() != r.resident || s.EvictedOut() != r.evictedOut || s.FootprintPages() != len(r.pages) {
			return fmt.Sprintf("space %d resident/evicted/footprint %d/%d/%d vs %d/%d/%d", i,
				s.Resident(), s.EvictedOut(), s.FootprintPages(), r.resident, r.evictedOut, len(r.pages))
		}
	}
	if got, want := lruOrder(m), refLRUOrder(ref); got != want {
		return fmt.Sprintf("LRU order\n got %s\nwant %s", got, want)
	}
	return ""
}

// TestPageTableMatchesReference drives the two-level page table and the
// map-based reference through seeded random Touch/Hit/Release/Clone/NewSpace
// sequences over spaces that together touch several times more pages
// than there are frames, comparing every result and observable.
func TestPageTableMatchesReference(t *testing.T) {
	const frames = 48
	for seed := int64(1); seed <= 12; seed++ {
		r := sim.NewRand(seed)
		m := New(frames*DefaultPageSize, 0)
		ref := &refMemory{totalFrames: frames}
		for i := 0; i < 3; i++ {
			m.NewSpace(fmt.Sprint("s", i))
			ref.newSpace()
		}
		// On Clone the original pair is parked and work goes on in the
		// copies; switching back later proves they share no state.
		var parked *Memory
		var parkedRef *refMemory
		for op := 0; op < 4000; op++ {
			switch k := r.Intn(1000); {
			case k < 4:
				parked, parkedRef = m, ref
				m, _ = m.Clone()
				ref = ref.clone()
			case k < 6 && parked != nil:
				m, ref, parked, parkedRef = parked, parkedRef, nil, nil
			case k < 9:
				i := r.Intn(len(m.spaces))
				m.spaces[i].Release()
				ref.spaces[i].release()
			case k < 12:
				m.NewSpace("late")
				ref.newSpace()
			default:
				i := r.Intn(len(m.spaces))
				if ref.spaces[i].released {
					continue
				}
				// Mostly a working set spanning a few leaves, sometimes
				// far-off pages in leaves of their own.
				vpage := uint64(r.Intn(3 * frames))
				if r.Intn(10) == 0 {
					vpage = uint64(1<<20 + r.Intn(4*64))
				}
				write := r.Intn(3) == 0
				addr := vpage*DefaultPageSize + uint64(r.Intn(DefaultPageSize))
				// Half the accesses try Hit first, as the kernel does,
				// and take the fault through Touch only on a miss.
				got := FaultResult{Kind: NoFault}
				if r.Intn(2) == 0 || !m.spaces[i].Hit(addr, write) {
					got = m.spaces[i].Touch(addr, write)
				}
				if want := ref.spaces[i].touch(vpage, write); got != want {
					t.Fatalf("seed %d op %d: space %d touch page %d = %+v, want %+v", seed, op, i, vpage, got, want)
				}
			}
			if d := diffState(m, ref); d != "" {
				t.Fatalf("seed %d op %d: %s", seed, op, d)
			}
		}
		if parked != nil {
			if d := diffState(parked, parkedRef); d != "" {
				t.Fatalf("seed %d: parked clone drifted: %s", seed, d)
			}
		}
	}
}

// TestRecentLeavesForgetReleasedSpace pins that Release empties the
// recently used leaves, so a released space serves no hit from the
// leaves it held, and a space made later gets leaves of its own.
func TestRecentLeavesForgetReleasedSpace(t *testing.T) {
	m := New(64*DefaultPageSize, 0)
	s := m.NewSpace("a")
	for key := uint64(0); key < recentLeaves; key++ {
		s.Touch(key<<leafBits*DefaultPageSize, true)
	}
	held := s.recent
	s.Release()
	if s.recent != ([recentLeaves]leafSlot{}) {
		t.Fatalf("released space still holds recent leaves %+v", s.recent)
	}
	for key := uint64(0); key < recentLeaves; key++ {
		if s.Hit(key<<leafBits*DefaultPageSize, false) {
			t.Fatalf("released space hit page %d", key<<leafBits)
		}
	}
	if m.UsedFrames() != 0 || m.lruHead != nil {
		t.Fatalf("released space left %d frames in use", m.UsedFrames())
	}
	later := m.NewSpace("b")
	later.Touch(0, false)
	for _, r := range held {
		if later.recent[0].l == r.l {
			t.Fatal("a new space was served a released space's leaf")
		}
	}
}

// TestRecentLeavesNotSharedByClone pins that a cloned space starts with
// no recently used leaves and serves hits from its own copies: a store
// in the clone dirties and moves the clone's page, never the
// original's.
func TestRecentLeavesNotSharedByClone(t *testing.T) {
	m := New(256*DefaultPageSize, 0)
	s := m.NewSpace("a")
	sweep(s, 3*64, false) // three resident leaves, all recently used
	cm, smap := m.Clone()
	cs := smap[s]
	if cs.recent != ([recentLeaves]leafSlot{}) {
		t.Fatalf("clone starts with recent leaves %+v", cs.recent)
	}
	before := lruOrder(m)
	if cs.Hit(0, true) {
		t.Fatal("clone hit before touching a leaf of its own")
	}
	for _, vp := range []uint64{0, 64, 128, 1} {
		if addr := vp * DefaultPageSize; !cs.Hit(addr, true) && cs.Touch(addr, true).Kind != NoFault {
			t.Fatalf("clone faulted on resident page %d", vp)
		}
		if l := cs.recent[0].l; l != cs.leaves[vp>>leafBits] || l == s.leaves[vp>>leafBits] {
			t.Fatalf("clone served page %d from a leaf that is not its own", vp)
		}
		if cm.lruTail != &cs.leaves[vp>>leafBits][vp&leafMask] {
			t.Fatalf("clone's hit on page %d did not move the clone's page to its LRU tail", vp)
		}
		if s.page(vp).dirty {
			t.Fatalf("clone's store hit dirtied the original's page %d", vp)
		}
	}
	if after := lruOrder(m); after != before {
		t.Fatalf("clone's hits moved the original's LRU:\nbefore %s\nafter  %s", before, after)
	}
}

// sweep touches pages [0, n) of s once each.
func sweep(s *Space, n uint64, write bool) {
	for vp := uint64(0); vp < n; vp++ {
		s.Touch(vp*DefaultPageSize, write)
	}
}

func TestTouchHitAllocFree(t *testing.T) {
	m := New(64*DefaultPageSize, 0)
	s := m.NewSpace("a")
	sweep(s, 32, false)
	vp := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if s.Touch(vp%32*DefaultPageSize, true).Kind != NoFault {
			t.Fatal("resident page missed")
		}
		vp += 7
	})
	if allocs != 0 {
		t.Fatalf("resident hit allocates %.2f times, want 0", allocs)
	}
}

func TestEvictingSweepAllocFree(t *testing.T) {
	m := New(64*DefaultPageSize, 0)
	a, b := m.NewSpace("a"), m.NewSpace("b")
	sweep(a, 256, true)
	sweep(b, 256, true)
	allocs := testing.AllocsPerRun(20, func() {
		sweep(a, 256, true)
		sweep(b, 256, false)
	})
	if allocs != 0 {
		t.Fatalf("evicting sweep over mapped pages allocates %.2f times, want 0", allocs)
	}
	if _, major := a.Faults(); major == 0 {
		t.Fatal("sweep never major-faulted: frames not over-committed")
	}
}

func BenchmarkTouch(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		m := New(1024*DefaultPageSize, 0)
		s := m.NewSpace("a")
		sweep(s, 512, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Touch(uint64(i%512)*DefaultPageSize, false)
		}
	})
	b.Run("first-touch", func(b *testing.B) {
		m := New(uint64(b.N+1)*DefaultPageSize, 0)
		s := m.NewSpace("a")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Touch(uint64(i)*DefaultPageSize, true)
		}
	})
	b.Run("evicting-sweep", func(b *testing.B) {
		m := New(256*DefaultPageSize, 0)
		s := m.NewSpace("a")
		sweep(s, 1024, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Touch(uint64(i%1024)*DefaultPageSize, true)
		}
	})
}
