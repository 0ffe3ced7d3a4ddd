package lib

import (
	"math"

	"repro/internal/guest"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Cycle costs of the genuine C-library functions, loosely calibrated
// to glibc on the paper's hardware. Attack interposers add their own
// cost on top of these, which is the whole point of the substitution
// attack.
const (
	MallocCost sim.Cycles = 400
	FreeCost   sim.Cycles = 250
	SqrtCost   sim.Cycles = 40
	MemcpyCost sim.Cycles = 2 // per 16-byte chunk, min applied below
)

// LibcName is the name of the standard C library object.
const LibcName = "libc.so.6"

// LibmName is the math library object (sqrt lives here, as in the
// paper's substitution experiment).
const LibmName = "libm.so.6"

// heap is the per-process allocator backing the genuine malloc: a
// bump pointer plus size-class free lists, so free() really recycles
// chunks the way glibc's fastbins do. Recycling matters beyond
// realism: a malloc/free loop re-touches the same simulated pages
// instead of growing the address space (and the host-side page table)
// without bound.
type heap struct {
	next       uint64
	sizeOf     map[uint64]uint64   // chunk address → rounded size
	freed      map[uint64]bool     // chunk address → currently on a free list
	freeBySize map[uint64][]uint64 // rounded size → freed chunks (LIFO)
}

// HeapBase is where simulated process heaps start.
const HeapBase uint64 = 0x0060_0000

// NewLibc builds the genuine C library. Heap state is per-process
// and lives inside this instance, so each simulated machine should
// install a fresh copy.
func NewLibc() *Library {
	heaps := make(map[proc.PID]*heap)
	// The last heap served, by pid: a process's malloc and free calls
	// come in runs, which then skip the map lookup. PIDs are never
	// reused and heaps never dropped, so the pair cannot go stale.
	var lastPID proc.PID
	var last *heap
	heapOf := func(pid proc.PID) *heap {
		if last != nil && lastPID == pid {
			return last
		}
		h := heaps[pid]
		if h == nil {
			h = &heap{
				next:       HeapBase,
				sizeOf:     make(map[uint64]uint64),
				freed:      make(map[uint64]bool),
				freeBySize: make(map[uint64][]uint64),
			}
			heaps[pid] = h
		}
		lastPID, last = pid, h
		return h
	}
	alloc := func(pid proc.PID, size uint64) uint64 {
		h := heapOf(pid)
		if size == 0 {
			size = 1
		}
		// Round to 16-byte alignment like glibc.
		size = (size + 15) &^ 15
		if bin := h.freeBySize[size]; len(bin) > 0 {
			addr := bin[len(bin)-1]
			h.freeBySize[size] = bin[:len(bin)-1]
			h.freed[addr] = false
			return addr
		}
		addr := h.next
		h.next += size
		h.sizeOf[addr] = size
		return addr
	}
	release := func(pid proc.PID, addr uint64) {
		h := heapOf(pid)
		size := h.sizeOf[addr]
		if size == 0 || h.freed[addr] {
			return // not a live chunk of this heap (or a double free)
		}
		h.freed[addr] = true
		h.freeBySize[size] = append(h.freeBySize[size], addr)
	}
	return &Library{
		Name:    LibcName,
		Content: "glibc-2.9 genuine",
		Funcs: map[string]guest.LibFunc{
			"malloc": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(MallocCost)
				var size uint64
				if len(args) > 0 {
					size = args[0]
				}
				addr := alloc(ctx.PID(), size)
				// First-touch of the returned chunk's header page.
				ctx.Store(addr)
				return addr
			},
			"free": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(FreeCost)
				if len(args) > 0 && args[0] != 0 {
					ctx.Load(args[0])
					release(ctx.PID(), args[0])
				}
				return 0
			},
			"memcpy": func(ctx guest.Context, args []uint64) uint64 {
				// args: dst, src, n
				var n uint64
				if len(args) > 2 {
					n = args[2]
				}
				chunks := sim.Cycles(n/16 + 1)
				ctx.Compute(chunks * MemcpyCost)
				if len(args) > 1 {
					ctx.Load(args[1])
				}
				if len(args) > 0 {
					ctx.Store(args[0])
				}
				return 0
			},
		},
	}
}

// NewLibm builds the genuine math library.
func NewLibm() *Library {
	return &Library{
		Name:    LibmName,
		Content: "libm-2.9 genuine",
		Funcs: map[string]guest.LibFunc{
			"sqrt": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(SqrtCost)
				var x float64
				if len(args) > 0 {
					x = math.Float64frombits(args[0])
				}
				return math.Float64bits(math.Sqrt(x))
			},
			"exp": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(SqrtCost * 2)
				var x float64
				if len(args) > 0 {
					x = math.Float64frombits(args[0])
				}
				return math.Float64bits(math.Exp(x))
			},
			"log": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(SqrtCost * 2)
				var x float64
				if len(args) > 0 {
					x = math.Float64frombits(args[0])
				}
				return math.Float64bits(math.Log(x))
			},
			"sin": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(SqrtCost * 3)
				var x float64
				if len(args) > 0 {
					x = math.Float64frombits(args[0])
				}
				return math.Float64bits(math.Sin(x))
			},
			"cos": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(SqrtCost * 3)
				var x float64
				if len(args) > 0 {
					x = math.Float64frombits(args[0])
				}
				return math.Float64bits(math.Cos(x))
			},
			"atan": func(ctx guest.Context, args []uint64) uint64 {
				ctx.Compute(SqrtCost * 3)
				var x float64
				if len(args) > 0 {
					x = math.Float64frombits(args[0])
				}
				return math.Float64bits(math.Atan(x))
			},
		},
	}
}

// StandardRegistry returns a registry with the genuine libc and libm
// installed — the clean system image before any attack tampering.
func StandardRegistry() *Registry {
	r := NewRegistry()
	r.Install(NewLibc())
	r.Install(NewLibm())
	return r
}
