// Package mem implements the simulated demand-paged virtual memory
// subsystem: per-process address spaces, a finite physical frame
// pool, LRU reclaim, and a swap device. It exists to reproduce the
// paper's exception-flooding attack (Section IV-B4 / Fig. 11), where
// an attacker that over-commits physical memory forces the victim to
// take page faults whose handler time is billed to the victim's
// system time.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// DefaultPageSize is the simulated page size in bytes (x86 4 KiB).
const DefaultPageSize = 4096

// DefaultPhysBytes is the simulated physical memory. The paper's
// testbed had 2 GiB requested against less physical memory; we model
// 1 GiB of RAM so a 2 GiB attacker footprint over-commits it.
const DefaultPhysBytes = 1 << 30

// FaultKind classifies the outcome of a memory access.
type FaultKind int

const (
	// NoFault: the page was resident; the access hit.
	NoFault FaultKind = iota + 1
	// MinorFault: first touch of a demand-zero page; a frame was
	// allocated without disk I/O.
	MinorFault
	// MajorFault: the page had been swapped out; satisfying the
	// access required a disk read.
	MajorFault
)

func (k FaultKind) String() string {
	switch k {
	case NoFault:
		return "hit"
	case MinorFault:
		return "minor"
	case MajorFault:
		return "major"
	default:
		return "invalid"
	}
}

// FaultResult describes what the MMU/fault path did for one access.
type FaultResult struct {
	Kind      FaultKind
	Evictions int // frames reclaimed from other pages to satisfy this access
	SwapOuts  int // evictions that were dirty and required a disk write
	SwapIn    bool
}

// pageState tracks one virtual page of one address space. The zero
// value is a page never touched; space and vpage are filled in on the
// first touch. The owner is an index rather than a pointer, which keeps
// the record at 32 bytes and lets a leaf be copied verbatim into a
// cloned space.
type pageState struct {
	// LRU list linkage (intrusive, deterministic).
	prev, next *pageState

	vpage   uint64
	space   int32 // owner's index in Memory.spaces
	present bool
	swapped bool
	dirty   bool
}

// leafBits sizes the page table's leaves: vpage>>leafBits selects a
// leaf and vpage&leafMask the page within it.
const (
	leafBits = 6
	leafMask = 1<<leafBits - 1
)

// leaf holds the state of 1<<leafBits consecutive virtual pages
// inline, so touching a page never allocates once its leaf exists.
type leaf [1 << leafBits]pageState

// recentLeaves is how many of its most recently used leaves a space
// serves ahead of its page-table map, the way a TLB serves recent
// translations ahead of a page walk.
const recentLeaves = 4

// leafSlot is one of a space's recently used leaves, keyed as in the
// map.
type leafSlot struct {
	key uint64
	l   *leaf
}

// Space is a per-process virtual address space.
type Space struct {
	mem   *Memory
	name  string
	index int32 // position in mem.spaces

	// leaves is the two-level page table, keyed by vpage>>leafBits;
	// nil until the first touch and after Release.
	leaves  map[uint64]*leaf
	touched int // pages ever touched (resident or swapped)
	// recent holds the most recently used leaves, most recent first,
	// up to the first nil slot. Release empties it, and a clone starts
	// with it empty.
	recent [recentLeaves]leafSlot

	resident   int
	minor      uint64
	major      uint64
	evictedOut uint64 // this space's pages reclaimed by pressure
	released   bool
}

// Memory is the machine-wide physical memory manager.
type Memory struct {
	pageSize    uint64
	totalFrames int
	usedFrames  int

	// Intrusive LRU list of resident pages: head is least recently
	// used, tail is most recently used.
	lruHead, lruTail *pageState

	// spaces holds the live address spaces by index. Release frees a
	// space's slot for NewSpace to reuse: a released space owns no
	// page, so nothing indexes it.
	spaces   []*Space
	free     []int32
	swapIns  uint64
	swapOuts uint64
}

// New returns a Memory with the given physical size and page size.
// Zero values select the defaults.
func New(physBytes, pageSize uint64) *Memory {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if physBytes == 0 {
		physBytes = DefaultPhysBytes
	}
	return &Memory{
		pageSize:    pageSize,
		totalFrames: int(physBytes / pageSize),
	}
}

// TotalFrames returns the number of physical frames.
func (m *Memory) TotalFrames() int { return m.totalFrames }

// UsedFrames returns the number of frames currently resident.
func (m *Memory) UsedFrames() int { return m.usedFrames }

// SwapTraffic reports cumulative swap-in and swap-out page counts.
func (m *Memory) SwapTraffic() (ins, outs uint64) { return m.swapIns, m.swapOuts }

// NewSpace creates an address space labelled name for diagnostics.
func (m *Memory) NewSpace(name string) *Space {
	return m.place(new(Space), name)
}

// Reuse makes s, a released space that nothing refers to any more, a
// new address space, as NewSpace does.
func (m *Memory) Reuse(s *Space, name string) *Space {
	if !s.released {
		panic(fmt.Sprintf("mem: reuse of live space %q", s.name))
	}
	*s = Space{}
	return m.place(s, name)
}

// place labels the empty space s and gives it a slot in m.
func (m *Memory) place(s *Space, name string) *Space {
	s.mem, s.name, s.index = m, name, int32(len(m.spaces))
	if n := len(m.free); n > 0 {
		s.index, m.free = m.free[n-1], m.free[:n-1]
		m.spaces[s.index] = s
	} else {
		m.spaces = append(m.spaces, s)
	}
	return s
}

// Name returns the diagnostic label.
func (s *Space) Name() string { return s.name }

// Released reports whether Release has freed the space.
func (s *Space) Released() bool { return s.released }

// Resident returns the number of this space's pages currently in RAM.
func (s *Space) Resident() int { return s.resident }

// Faults returns cumulative minor and major fault counts.
func (s *Space) Faults() (minor, major uint64) { return s.minor, s.major }

// EvictedOut returns how many times this space's pages were reclaimed
// due to memory pressure from any space.
func (s *Space) EvictedOut() uint64 { return s.evictedOut }

// FootprintPages returns the number of pages this space has ever
// touched (resident or swapped).
func (s *Space) FootprintPages() int { return s.touched }

// page returns vpage's slot in the page table, creating its leaf on
// first use. Only a leaf missing from the recently used ones costs a
// map lookup.
func (s *Space) page(vpage uint64) *pageState {
	l := s.recentLeaf(vpage >> leafBits)
	if l == nil {
		l = s.walk(vpage >> leafBits)
	}
	return &l[vpage&leafMask]
}

// walk returns the leaf at key from the map, creating it at first use,
// and puts it in front of the recently used leaves, dropping the least
// recently used when all slots are full.
func (s *Space) walk(key uint64) *leaf {
	l := s.leaves[key]
	if l == nil {
		if s.leaves == nil {
			s.leaves = make(map[uint64]*leaf)
		}
		l = new(leaf)
		s.leaves[key] = l
	}
	for i := recentLeaves - 1; i > 0; i-- {
		s.recent[i] = s.recent[i-1]
	}
	s.recent[0] = leafSlot{key: key, l: l}
	return l
}

// recentLeaf returns the leaf at key, moved to the front, when it is
// one of the recently used leaves, and nil otherwise.
func (s *Space) recentLeaf(key uint64) *leaf {
	for i := range s.recent {
		r := s.recent[i]
		if r.l == nil {
			break
		}
		if r.key == key {
			for ; i > 0; i-- {
				s.recent[i] = s.recent[i-1]
			}
			s.recent[0] = r
			return r.l
		}
	}
	return nil
}

// Hit serves an access at addr the way an MMU serves a TLB hit: when
// addr's page is resident in one of the recently used leaves, it moves
// the page to the LRU tail, marks it dirty on a write, as Touch does
// for a hit, and reports true. Otherwise it reports false and changes
// no page, and the caller takes the access through Touch, which walks
// the map and faults as needed.
func (s *Space) Hit(addr uint64, write bool) bool {
	vpage := addr / s.mem.pageSize
	l := s.recentLeaf(vpage >> leafBits)
	if l == nil {
		return false
	}
	p := &l[vpage&leafMask]
	if !p.present {
		return false
	}
	s.mem.lruMoveToTail(p)
	if write {
		p.dirty = true
	}
	return true
}

// Touch performs one memory access at byte address addr. write marks
// the page dirty. The returned FaultResult tells the kernel what to
// charge: minor faults cost handler CPU, major faults additionally
// cost a disk read, and each dirty eviction costs a disk write.
func (s *Space) Touch(addr uint64, write bool) FaultResult {
	if s.released {
		panic(fmt.Sprintf("mem: touch on released space %q", s.name))
	}
	vpage := addr / s.mem.pageSize
	p := s.page(vpage)

	if p.present {
		s.mem.lruMoveToTail(p)
		if write {
			p.dirty = true
		}
		return FaultResult{Kind: NoFault}
	}

	// Fault path: need a frame.
	res := FaultResult{Kind: MinorFault}
	if p.swapped {
		res.Kind = MajorFault
		res.SwapIn = true
		s.mem.swapIns++
		s.major++
	} else {
		s.minor++
		p.space, p.vpage = s.index, vpage
		s.touched++
	}

	for s.mem.usedFrames >= s.mem.totalFrames {
		victim := s.mem.lruHead
		if victim == nil {
			panic("mem: frame accounting corrupt: no LRU victim but frames exhausted")
		}
		res.Evictions++
		if s.mem.evict(victim) {
			res.SwapOuts++
		}
	}

	p.present = true
	p.swapped = false
	p.dirty = write
	s.mem.usedFrames++
	s.resident++
	s.mem.lruPushTail(p)
	return res
}

// Release frees every frame the space holds, forgets its pages and
// drops the space from its Memory, modelling process exit.
func (s *Space) Release() {
	if s.released {
		return
	}
	// Unlinking a set of pages leaves the same LRU list in any order.
	for _, l := range s.leaves {
		for i := range l {
			if p := &l[i]; p.present {
				s.mem.lruRemove(p)
				s.mem.usedFrames--
			}
		}
	}
	s.leaves = nil
	s.recent = [recentLeaves]leafSlot{}
	s.touched = 0
	s.resident = 0
	s.released = true
	s.mem.spaces[s.index] = nil
	s.mem.free = append(s.mem.free, s.index)
}

// evict reclaims the frame backing p, swapping it out if dirty. It
// reports whether a swap-out (disk write) was required.
func (m *Memory) evict(p *pageState) (swappedOut bool) {
	m.lruRemove(p)
	p.present = false
	p.swapped = true
	if p.dirty {
		m.swapOuts++
		swappedOut = true
	}
	p.dirty = false
	m.usedFrames--
	s := m.spaces[p.space]
	s.resident--
	s.evictedOut++
	return swappedOut
}

func (m *Memory) lruPushTail(p *pageState) {
	p.prev = m.lruTail
	p.next = nil
	if m.lruTail != nil {
		m.lruTail.next = p
	} else {
		m.lruHead = p
	}
	m.lruTail = p
}

func (m *Memory) lruRemove(p *pageState) {
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

func (m *Memory) lruMoveToTail(p *pageState) {
	if m.lruTail == p {
		return
	}
	m.lruRemove(p)
	m.lruPushTail(p)
}

// DiskLatency models the swap device: cycles of wall time one page of
// swap I/O takes. At 2.53 GHz, 5 ms (2007-era 7200 rpm seek+transfer)
// is ~12.6 M cycles. The process is blocked, not charged CPU, for
// this period; only the handler cost from the CPU cost model is
// charged as stime.
func DiskLatency(freq sim.Hz) sim.Cycles {
	return sim.Cycles(freq / 200) // 5 ms
}

// Clone returns an independent deep copy of the whole memory
// subsystem for checkpoint restore, plus twin, which maps each of m's
// spaces to its copy so callers can re-point their Space references.
// A released space is no longer part of m: its twin is a released
// space of the copy with the same name and counters. The intrusive
// LRU list is rebuilt by walking head→tail, so future eviction order
// is identical to the original's; each page's copy is found by leaf
// arithmetic from its space index and vpage, straight from the copied
// map, so every copy starts with no recently used leaves.
func (m *Memory) Clone() (*Memory, func(*Space) *Space) {
	cm := &Memory{
		pageSize:    m.pageSize,
		totalFrames: m.totalFrames,
		usedFrames:  m.usedFrames,
		spaces:      make([]*Space, len(m.spaces)),
		free:        append([]int32(nil), m.free...),
		swapIns:     m.swapIns,
		swapOuts:    m.swapOuts,
	}
	smap := make(map[*Space]*Space, len(m.spaces))
	copySpace := func(s *Space) *Space {
		cs := &Space{
			mem:        cm,
			name:       s.name,
			index:      s.index,
			touched:    s.touched,
			resident:   s.resident,
			minor:      s.minor,
			major:      s.major,
			evictedOut: s.evictedOut,
			released:   s.released,
		}
		smap[s] = cs
		return cs
	}
	for i, s := range m.spaces {
		if s == nil {
			continue
		}
		cs := copySpace(s)
		if s.leaves != nil {
			cs.leaves = make(map[uint64]*leaf, len(s.leaves))
			//simlint:unordered-ok deep copy into a map keyed identically; no iteration-order-dependent state is produced
			for key, l := range s.leaves {
				// Resident pages' copied links still point into the
				// original; the LRU walk below overwrites them.
				cl := new(leaf)
				*cl = *l
				cs.leaves[key] = cl
			}
		}
		cm.spaces[i] = cs
	}
	for p := m.lruHead; p != nil; p = p.next {
		cl := cm.spaces[p.space].leaves[p.vpage>>leafBits]
		cm.lruPushTail(&cl[p.vpage&leafMask])
	}
	return cm, func(s *Space) *Space {
		if cs, ok := smap[s]; ok || s == nil {
			return cs
		}
		return copySpace(s)
	}
}
