package kernel

import (
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// ioVictim is a forkable Step job for a machine that serves remote
// I/O: compute bursts with sleeps between them, so completions land
// both on a running task and on an idle machine.
type ioVictim struct {
	rounds       int
	burst, sleep sim.Cycles
	i            int
	computed     bool // the last post was the compute, not the sleep
}

func (g *ioVictim) Activate(ctx guest.Context, _ guest.Resume) bool {
	if g.computed {
		g.i++
		g.computed = false
		ctx.Sleep(g.sleep)
		return true
	}
	if g.i >= g.rounds {
		return false
	}
	g.computed = true
	ctx.Compute(g.burst)
	return true
}

// ioWatcher is a forkable Step daemon that blocks in NetRxWait for
// every delivery: it is woken a latency after each rx interrupt's
// handler ends, so its schedule shows where that lump fell.
type ioWatcher struct {
	seen uint64
}

func (w *ioWatcher) Activate(ctx guest.Context, r guest.Resume) bool {
	w.seen = r.Ret
	ctx.NetRxWait(w.seen)
	return true
}

// ioHost is a 1 GHz machine serving remote I/O at 10 µs of service
// each, running one ioVictim.
func ioHost(t testing.TB, rounds int, burst, sleep sim.Cycles) *Machine {
	m := New(Config{Seed: 7, CPUHz: 1_000_000_000, MaxSteps: 50_000_000})
	m.ServeRemoteIO(10_000)
	victim, fork := guest.Resumable(ioVictim{rounds: rounds, burst: burst, sleep: sleep})
	if _, err := m.Spawn(SpawnConfig{Name: "victim", Content: "victim v1", Step: victim, Fork: fork}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRemoteIOBacklogKeepsHostQueueShallow pins the remote I/O
// backlog: clients book I/O faster than the host serves it, so more
// than a thousand remote I/Os wait on the host, yet its event queue
// holds only the backlog's head among them, so at no barrier does it
// hold more than a handful of events.
func TestRemoteIOBacklogKeepsHostQueueShallow(t *testing.T) {
	m := ioHost(t, 200, 1_000_000, 200_000)
	const (
		slice  = sim.Cycles(1_000_000) // 1 ms
		gap    = sim.Cycles(50_000)    // one completion every 50 µs
		perMs  = 40                    // booked per slice: twice the rate served
		slices = 60
	)
	at := 5 * slice
	peakQueue, peakIOs := 0, 0
	for limit := slice; ; limit += slice {
		if limit <= slices*slice {
			for range perMs {
				m.RemoteIO(at)
				at += gap
			}
		}
		done, err := m.RunUntil(limit)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		peakQueue = max(peakQueue, m.queue.Len())
		peakIOs = max(peakIOs, m.rio.fifo.Len())
	}
	t.Logf("peak queue %d, peak pending remote I/Os %d", peakQueue, peakIOs)
	if peakQueue > 16 {
		t.Fatalf("the event queue held %d events at a barrier, want at most 16", peakQueue)
	}
	if peakIOs <= 1000 {
		t.Fatalf("at most %d remote I/Os were pending at a barrier, want a backlog of more than 1000", peakIOs)
	}
	if got, want := m.NIC().Received(), uint64(perMs*slices); got != want {
		t.Fatalf("the host's NIC received %d remote I/O requests, want %d", got, want)
	}
}

// TestRemoteIOAllocatesNothing books one remote I/O and runs the host
// until one completes, a thousand I/Os deep: the backlog neither grows
// nor shrinks, and neither booking nor serving an I/O allocates.
func TestRemoteIOAllocatesNothing(t *testing.T) {
	m := ioHost(t, 1<<30, 1_000_000, 200_000)
	const gap = sim.Cycles(50_000)
	at, limit := sim.Cycles(1_000_000), sim.Cycles(1_000_000)
	for range 1000 {
		m.RemoteIO(at)
		at += gap
	}
	step := func() {
		m.RemoteIO(at)
		at += gap
		limit += gap
		if done, err := m.RunUntil(limit); done || err != nil {
			t.Fatalf("RunUntil(%d) = %v, %v", limit, done, err)
		}
	}
	for range 100 {
		step() // warm the free lists
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("a remote I/O allocated %v times, want 0", n)
	}
	if n := m.rio.fifo.Len(); n < 990 || n > 1010 {
		t.Fatalf("the backlog holds %d remote I/Os, want about 1000", n)
	}
}

// watchedIOHost is ioHost with an ioWatcher beside the victim. The
// watcher never exits, so the machine runs only in RunUntil slices.
func watchedIOHost(t testing.TB) *Machine {
	m := ioHost(t, 300, 300_000, 100_000)
	watcher, fork := guest.Resumable(ioWatcher{})
	if _, err := m.Spawn(SpawnConfig{Name: "watcher", Content: "watcher v1", Step: watcher, Fork: fork}); err != nil {
		t.Fatal(err)
	}
	return m
}

// renderIOHost is what FuzzRemoteIOMatchesDirect compares: the clock,
// the NIC count, and the victim's and the watcher's stats and bills
// under every scheme, with the system account's.
func renderIOHost(m *Machine) string {
	s := fmt.Sprintf("clock=%d nicrx=%d", m.Clock().Now(), m.NIC().Received())
	for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
		sys, _ := m.UsageBy(scheme, metering.SystemPID)
		s += fmt.Sprintf(" %s system=%+v", scheme, sys)
	}
	for pid := proc.PID(1); pid <= 2; pid++ {
		s += fmt.Sprintf("\npid %d stats=%+v", pid, m.Stats(pid))
		for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
			u, _ := m.UsageBy(scheme, pid)
			s += fmt.Sprintf(" %s=%+v", scheme, u)
		}
	}
	return s
}

// FuzzRemoteIOMatchesDirect books remote I/O on one machine through its
// backlog and on a reference machine as the two events of each I/O
// scheduled directly, the rx interrupt (NIC.InjectRx) and the service,
// and runs both in the same RunUntil slices. Each machine runs an
// ioVictim and an ioWatcher, whose wake-ups follow the rx interrupts.
// Each three-byte op is an opcode and a little-endian argument w:
//
//	0, 1: one I/O completing w·200 cycles from now, often before the
//	      backlog's tail
//	2:    w%16+1 I/Os, 40 µs apart, from w·50 cycles from now
//	3:    a RunUntil slice of w·100+1 cycles
//	4:    snapshot the backlog machine and go on with a restored copy,
//	      in a new machine (w even) or, as Pool.Get does, in the old
//	      machine's recycled shell (w odd)
//
// The clock, the NIC count, both tasks' stats and every bill must be
// equal after every slice and after a last 200 ms slice.
func FuzzRemoteIOMatchesDirect(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x27, 0, 0x20, 0x4e, 0, 0x00, 0x10, 3, 0x50, 0xc3, 0, 0xff, 0x01, 3, 0xff, 0xff})
	f.Add([]byte{2, 0x0f, 0x10, 2, 0x07, 0x20, 0, 0x10, 0x00, 3, 0x10, 0x27, 4, 0, 0, 3, 0xff, 0xff, 1, 0x01, 0x00, 4, 1, 0, 3, 0x00, 0x80})
	f.Add([]byte{2, 0xff, 0xff, 0, 0x00, 0x00, 3, 0x88, 0x13, 4, 0, 0, 2, 0x03, 0x00, 3, 0x40, 0x9c})
	f.Fuzz(func(t *testing.T, data []byte) {
		backlog, direct := watchedIOHost(t), watchedIOHost(t)
		defer func() {
			backlog.Shutdown()
			direct.Shutdown()
		}()
		book := func(at sim.Cycles) {
			backlog.RemoteIO(at)
			direct.nic.InjectRx(at)
			direct.queue.Schedule(at, "remote-io", direct.remoteService)
		}
		slice := func(limit sim.Cycles) {
			d1, err1 := backlog.RunUntil(limit)
			d2, err2 := direct.RunUntil(limit)
			if err1 != nil || err2 != nil || d1 || d2 {
				t.Fatalf("RunUntil(%d): backlog %v, %v; direct %v, %v", limit, d1, err1, d2, err2)
			}
			if got, want := renderIOHost(backlog), renderIOHost(direct); got != want {
				t.Fatalf("after RunUntil(%d):\nbacklog %s\ndirect  %s", limit, got, want)
			}
		}
		for ops := 0; len(data) >= 3 && ops < 64; ops++ {
			w := sim.Cycles(data[1]) | sim.Cycles(data[2])<<8
			now := backlog.Clock().Now()
			switch data[0] % 5 {
			case 0, 1:
				book(now + w*200)
			case 2:
				for i := range w%16 + 1 {
					book(now + w*50 + i*40_000)
				}
			case 3:
				slice(now + w*100 + 1)
			case 4:
				img, err := backlog.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				var pool Pool
				pool.Put(backlog)
				if w%2 == 0 {
					backlog, err = Restore(img)
				} else {
					backlog, err = pool.Get(img)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			data = data[3:]
		}
		slice(backlog.Clock().Now() + 200_000_000)
	})
}
