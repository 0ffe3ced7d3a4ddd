package kernel

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
)

// fuzzOp is one decoded guest request: an opcode and its argument.
type fuzzOp struct {
	code byte
	arg  uint16
}

const (
	fuzzCompute = iota
	fuzzSleep
	fuzzYield
	fuzzClock
	fuzzSyscall
	fuzzStore
	fuzzLoad
	fuzzUsage
	fuzzNice
	fuzzOpCount

	// fuzzPages is the span Store and Load touch, twice the machine's
	// RAM (fuzzMachine), so the sequence pages.
	fuzzPages  = 48
	fuzzMaxOps = 64
)

// decodeFuzzOps reads up to fuzzMaxOps requests, three bytes each: an
// opcode and a little-endian argument.
func decodeFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for len(data) >= 3 && len(ops) < fuzzMaxOps {
		ops = append(ops, fuzzOp{code: data[0] % fuzzOpCount, arg: uint16(data[1]) | uint16(data[2])<<8})
		data = data[3:]
	}
	return ops
}

// fuzzMachine has 24 pages of RAM, fails a quarter of read syscalls
// with EAGAIN and bills with jiffy, tsc or process-aware (billing 0, 1
// or 2), the scheme a guest's Usage reads.
func fuzzMachine(policy string, billing int) *Machine {
	accts := []metering.Accountant{metering.NewJiffy(1_000_000_000 / DefaultHZ), metering.NewTSC(), metering.NewProcessAware()}
	accts[0], accts[billing] = accts[billing], accts[0]
	return New(Config{
		Seed:            5,
		CPUHz:           1_000_000_000,
		MaxSteps:        50_000_000,
		SchedulerPolicy: policy,
		PhysMemBytes:    fuzzPages / 2 * mem.DefaultPageSize,
		Accountants:     accts,
		Faults: &FaultSpec{Syscalls: []SyscallFault{
			{Name: "read", Errno: guest.EAGAIN, ProbPPM: 250_000},
		}},
	})
}

// post issues op through ctx. Compute and Sleep take at least one
// cycle, so every op posts exactly one request. It returns the
// method's return values as log words.
func (op fuzzOp) post(ctx guest.Context) []uint64 {
	switch op.code {
	case fuzzCompute:
		ctx.Compute(1 + sim.Cycles(op.arg)*100)
	case fuzzSleep:
		ctx.Sleep(1 + sim.Cycles(op.arg)*100)
	case fuzzYield:
		ctx.Yield()
	case fuzzClock:
		return []uint64{uint64(ctx.ClockNow())}
	case fuzzSyscall:
		return []uint64{errnoWord(ctx.Syscall("read"))}
	case fuzzStore:
		ctx.Store(uint64(op.arg%fuzzPages) * mem.DefaultPageSize)
	case fuzzLoad:
		ctx.Load(uint64(op.arg%fuzzPages) * mem.DefaultPageSize)
	case fuzzUsage:
		u, s := ctx.Usage()
		return []uint64{uint64(u), uint64(s)}
	case fuzzNice:
		ctx.SetNice(int(op.arg%40) - 20)
	}
	return nil
}

// reply returns the log words the kernel's reply to op carries in r,
// the same words post returns to a Body guest.
func (op fuzzOp) reply(r guest.Resume) []uint64 {
	switch op.code {
	case fuzzClock:
		return []uint64{r.Ret}
	case fuzzSyscall:
		return []uint64{errnoWord(r.Err)}
	case fuzzUsage:
		return []uint64{uint64(r.User), uint64(r.Sys)}
	}
	return nil
}

// errnoWord encodes a syscall's error reply: 0 for success, the errno
// otherwise, and all ones for an error that is no errno.
func errnoWord(err error) uint64 {
	var e guest.Errno
	switch {
	case err == nil:
		return 0
	case errors.As(err, &e):
		return uint64(e)
	}
	return ^uint64(0)
}

// fuzzStep replays ops as a Step guest, logging each reply from the
// next activation's Resume. bad records a posting method that returned
// a nonzero value, which the Step contract forbids.
type fuzzStep struct {
	ops []fuzzOp
	i   int
	log []uint64
	bad bool
}

func (g *fuzzStep) run(ctx guest.Context, r guest.Resume) guest.Step {
	if g.i > 0 {
		g.log = append(g.log, g.ops[g.i-1].reply(r)...)
	}
	if g.i == len(g.ops) {
		return nil
	}
	op := g.ops[g.i]
	g.i++
	for _, w := range op.post(ctx) {
		g.bad = g.bad || w != 0
	}
	return g.run
}

// fuzzRun runs ops on a fresh fuzzMachine as a Step or a Body guest
// and returns the reply log with the machine and the guest's pid.
func fuzzRun(t *testing.T, ops []fuzzOp, asStep bool) ([]uint64, *Machine, proc.PID) {
	t.Helper()
	m := fuzzMachine("", 0)
	var log []uint64
	g := &fuzzStep{ops: ops}
	sc := SpawnConfig{Name: "fuzz"}
	if asStep {
		sc.Step = g.run
	} else {
		sc.Body = func(ctx guest.Context) {
			for _, op := range ops {
				log = append(log, op.post(ctx)...)
			}
		}
	}
	p, err := m.Spawn(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("step=%v: run: %v", asStep, err)
	}
	if asStep {
		if g.bad {
			t.Fatal("a Step guest's posting method returned a nonzero value")
		}
		log = g.log
	}
	return log, m, p.PID
}

// FuzzStepMatchesBody pins TestStepGuestMatchesBodyGuest's invariant
// over arbitrary request sequences that page, draw injected faults,
// read usage and renice: the same sequence written as a Step and as
// blocking Body code gets the same replies, the same final clock, the
// same kernel counters and the same bills under every scheme.
func FuzzStepMatchesBody(f *testing.F) {
	f.Add([]byte{fuzzCompute, 0x10, 0x27, fuzzClock, 0, 0, fuzzUsage, 0, 0})
	f.Add([]byte{fuzzSyscall, 0, 0, fuzzSyscall, 0, 0, fuzzSyscall, 0, 0, fuzzSyscall, 0, 0, fuzzSyscall, 0, 0})
	f.Add([]byte{
		fuzzStore, 0, 0, fuzzStore, 30, 0, fuzzLoad, 1, 0, fuzzStore, 47, 0,
		fuzzLoad, 0, 0, fuzzSleep, 0xff, 0, fuzzYield, 0, 0, fuzzNice, 39, 0,
		fuzzCompute, 0xff, 0xff, fuzzUsage, 0, 0, fuzzClock, 0, 0,
	})
	// Store every page, then load the first ones back: past 24 pages
	// the machine swaps.
	var paging []byte
	for i := 0; i < fuzzMaxOps; i++ {
		code := byte(fuzzStore)
		if i >= fuzzPages {
			code = fuzzLoad
		}
		paging = append(paging, code, byte(i%fuzzPages), 0)
	}
	f.Add(paging)
	// Store to and load from three pages, over and over: after the
	// first touches, every access is a resident hit.
	var hits []byte
	for i := 0; i < fuzzMaxOps; i++ {
		code := byte(fuzzStore)
		if i%2 == 1 {
			code = fuzzLoad
		}
		hits = append(hits, code, byte(i%3), 0)
	}
	f.Add(hits)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)
		if len(ops) == 0 {
			return
		}
		logS, ms, ps := fuzzRun(t, ops, true)
		logB, mb, pb := fuzzRun(t, ops, false)
		if len(logS) != len(logB) {
			t.Fatalf("reply logs differ in length: step %d, body %d", len(logS), len(logB))
		}
		for i := range logS {
			if logS[i] != logB[i] {
				t.Fatalf("reply word %d diverged: step %d, body %d\nstep %v\nbody %v", i, logS[i], logB[i], logS, logB)
			}
		}
		if ns, nb := ms.Clock().Now(), mb.Clock().Now(); ns != nb {
			t.Fatalf("final virtual time diverged: step %d, body %d", ns, nb)
		}
		if cs, cb := ms.Stats(ps), mb.Stats(pb); cs != cb {
			t.Fatalf("kernel counters diverged: step %+v, body %+v", cs, cb)
		}
		for _, scheme := range []string{"jiffy", "tsc", "process-aware"} {
			us, _ := ms.UsageBy(scheme, ps)
			ub, _ := mb.UsageBy(scheme, pb)
			if us != ub {
				t.Fatalf("%s usage diverged: step %+v, body %+v", scheme, us, ub)
			}
		}
	})
}

// slicedRun runs two Body guests replaying ops (even-indexed ops at
// nice 0, odd-indexed at nice 3) beside a compute hog on a fresh
// fuzzMachine. A zero slice drives it with Run; otherwise with RunUntil
// in slices of that width. It returns each guest's reply log, with the
// ClockNow reply after every op, and renderFinal.
func slicedRun(t *testing.T, policy string, billing int, ops []fuzzOp, slice sim.Cycles) ([2][]uint64, string) {
	t.Helper()
	m := fuzzMachine(policy, billing)
	var logs [2][]uint64
	var pids []proc.PID
	spawn := func(name string, nice int, body guest.Routine) {
		p, err := m.Spawn(SpawnConfig{Name: name, Content: name, Nice: nice, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID)
	}
	for g := range logs {
		spawn(fmt.Sprintf("guest%d", g), 3*g, func(ctx guest.Context) {
			for i := g; i < len(ops); i += 2 {
				logs[g] = append(logs[g], ops[i].post(ctx)...)
				logs[g] = append(logs[g], uint64(ctx.ClockNow()))
			}
		})
	}
	// The hog outlasts an O1 nice-0 timeslice (100 ms), so quanta
	// expire under both policies.
	spawn("hog", 0, func(ctx guest.Context) {
		for i := 0; i < 50; i++ {
			ctx.Compute(2_500_000)
		}
	})
	if slice == 0 {
		if err := m.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return logs, renderFinal(m, pids)
	}
	for limit := slice; ; limit += slice {
		done, err := m.RunUntil(limit)
		if err != nil {
			t.Fatalf("run until %d: %v", limit, err)
		}
		if done {
			return logs, renderFinal(m, pids)
		}
	}
}

// FuzzSlicedRunMatchesRun pins RunUntil's contract across the inline
// compute burn and the billing flushes: two fuzzed Body guests and a
// compute hog, on O1 or CFS (the first byte's low bit), billed by
// jiffy, tsc or process-aware (the rest of it, mod 3), get the same
// replies, clocks and renderFinal when driven by Run and in RunUntil
// slices of 10,000 + 97·w cycles (w the second byte). A barrier inside
// a compute forces the general path, so the two runs burn different
// computes inline. Every slice ends in a flush, so a Usage reply read
// before a missing flush differs between the two under tsc and
// process-aware.
func FuzzSlicedRunMatchesRun(f *testing.F) {
	f.Add([]byte{0, 0, fuzzCompute, 0x10, 0x27, fuzzCompute, 0x20, 0x4e, fuzzClock, 0, 0, fuzzSyscall, 0, 0, fuzzCompute, 0xff, 0x03, fuzzCompute, 0x40, 0x01})
	f.Add([]byte{1, 40, fuzzCompute, 0x10, 0x27, fuzzSleep, 0x00, 0x10, fuzzCompute, 0x20, 0x4e, fuzzYield, 0, 0, fuzzCompute, 0x88, 0x13, fuzzUsage, 0, 0})
	f.Add([]byte{2, 40, fuzzCompute, 0x10, 0x27, fuzzUsage, 0, 0, fuzzSleep, 0x00, 0x10, fuzzCompute, 0x20, 0x4e, fuzzUsage, 0, 0})
	f.Add([]byte{5, 7, fuzzCompute, 0x88, 0x13, fuzzUsage, 0, 0, fuzzCompute, 0xff, 0x03, fuzzYield, 0, 0, fuzzUsage, 0, 0})
	f.Add([]byte{
		0, 200, fuzzStore, 0, 0, fuzzCompute, 0x00, 0x20, fuzzStore, 30, 0, fuzzCompute, 0xe8, 0x03,
		fuzzLoad, 1, 0, fuzzNice, 10, 0, fuzzCompute, 0xff, 0xff, fuzzSleep, 0x50, 0x00, fuzzClock, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		policy := "o1"
		if data[0]&1 == 1 {
			policy = "cfs"
		}
		billing := int(data[0]>>1) % 3
		ops := decodeFuzzOps(data[2:])
		if len(ops) == 0 {
			return
		}
		wantLogs, want := slicedRun(t, policy, billing, ops, 0)
		gotLogs, got := slicedRun(t, policy, billing, ops, 10_000+97*sim.Cycles(data[1]))
		for g := range wantLogs {
			if !slices.Equal(gotLogs[g], wantLogs[g]) {
				t.Fatalf("%s, billing %d: guest %d replies diverged:\nsliced %v\nrun    %v", policy, billing, g, gotLogs[g], wantLogs[g])
			}
		}
		if got != want {
			t.Fatalf("%s, billing %d: renderFinal diverged:\nsliced\n%s\nrun\n%s", policy, billing, got, want)
		}
	})
}
