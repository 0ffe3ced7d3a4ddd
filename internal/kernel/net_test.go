package kernel

import (
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/guest"
	"repro/internal/sim"
)

// routeOnly sets m's transmit function to a one-entry forwarding
// table: frames addressed to dst go to send, and every other frame is
// refused as having no route.
func routeOnly(m *Machine, dst device.Addr, send func(device.Frame) bool) {
	m.NIC().SetTx(func(f device.Frame) bool { return f.Dst == dst && send(f) })
}

// TestNetSendRoutesAndCounters pins the addressed guest tx entry
// point: frames go through the NIC's transmit function, stamped with
// the machine's own source address, carry/drop feedback reaches the
// guest, and frames to an unrouted destination count as transmit
// drops.
func TestNetSendRoutesAndCounters(t *testing.T) {
	m := testMachine(t)
	defer m.Shutdown()
	const self, peer = device.Addr(1), device.Addr(2)
	m.NIC().SetAddr(self)
	var carried int
	var lastSrc device.Addr
	routeOnly(m, peer, func(f device.Frame) bool {
		carried++
		lastSrc = f.Src
		return carried%2 == 1 // wire drops every second frame
	})
	var acks, nacks int
	if _, err := m.Spawn(SpawnConfig{Name: "sender", Body: func(ctx guest.Context) {
		for i := 0; i < 4; i++ {
			//simlint:errno-ok carried bool is the assertion; this fixture injects no faults
			if ok, _ := ctx.NetSend(guest.Frame{Dst: peer}); ok {
				acks++
			} else {
				nacks++
			}
		}
		//simlint:errno-ok carried bool is the assertion; this fixture injects no faults
		if ok, _ := ctx.NetSend(guest.Frame{Dst: 9}); ok { // no route to this address
			t.Error("NetSend to unrouted destination reported carried")
		}
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if carried != 4 {
		t.Fatalf("route invoked %d times, want 4", carried)
	}
	if lastSrc != self {
		t.Fatalf("frame Src = %d, want %d (kernel must stamp the sender's address)", lastSrc, self)
	}
	if acks != 2 || nacks != 2 {
		t.Fatalf("acks=%d nacks=%d, want 2/2 (wire feedback must reach the guest)", acks, nacks)
	}
	if got := m.NIC().Transmitted(); got != 2 {
		t.Fatalf("Transmitted = %d, want 2", got)
	}
	if got := m.NIC().TxDropped(); got != 3 {
		t.Fatalf("TxDropped = %d, want 3 (2 wire drops + 1 unrouted destination)", got)
	}
}

// TestNetSendBillsSystemTime asserts the tx path is billed kernel
// work of the sender, not free.
func TestNetSendBillsSystemTime(t *testing.T) {
	m := testMachine(t)
	const peer = device.Addr(2)
	routeOnly(m, peer, func(device.Frame) bool { return true })
	p, _ := m.Spawn(SpawnConfig{Name: "sender", Body: func(ctx guest.Context) {
		for i := 0; i < 1000; i++ {
			//simlint:errno-ok backpressure test; drops are counted by the NIC ledger, not the guest
			ctx.NetSend(guest.Frame{Dst: peer})
		}
	}})
	run(t, m)
	u, _ := m.UsageBy("tsc", p.PID)
	perFrame := m.CPU().Costs().NICTx
	if u.System < 1000*perFrame {
		t.Fatalf("tsc system = %d, want at least %d (1000 frames of tx-path work)", u.System, 1000*perFrame)
	}
}

// TestNetRecvDrainsFramesInArrivalOrder pins the frame receive
// buffer: injected frames surface through NetRecv in arrival order
// with headers intact, and an empty buffer reports ok=false.
func TestNetRecvDrainsFramesInArrivalOrder(t *testing.T) {
	m := testMachine(t)
	tick := m.TickCycles()
	// Inject out of schedule order; arrival order must win.
	m.NIC().InjectRxFrame(3*tick, device.Frame{Src: 7, Flow: 30, CE: true})
	m.NIC().InjectRxFrame(2*tick, device.Frame{Src: 5, Flow: 20})
	m.NIC().InjectRx(tick) // payload-less: counts, queues no frame
	var got []device.Frame
	var emptyOK bool
	if _, err := m.Spawn(SpawnConfig{Name: "reader", Body: func(ctx guest.Context) {
		seen := uint64(0)
		for seen < 3 {
			seen = ctx.NetRxWait(seen)
		}
		for {
			//simlint:errno-ok drain loop; ok bounds it and this fixture injects no faults
			f, ok, _ := ctx.NetRecv()
			if !ok {
				break
			}
			got = append(got, f)
		}
		//simlint:errno-ok emptyOK is the assertion; this fixture injects no faults
		_, emptyOK, _ = ctx.NetRecv()
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if len(got) != 2 {
		t.Fatalf("NetRecv drained %d frames, want 2 (payload-less injection queues none)", len(got))
	}
	if got[0].Src != 5 || got[0].Flow != 20 || got[0].CE {
		t.Fatalf("first frame = %+v, want Src 5 / Flow 20 / no CE (arrival order)", got[0])
	}
	if got[1].Src != 7 || got[1].Flow != 30 || !got[1].CE {
		t.Fatalf("second frame = %+v, want Src 7 / Flow 30 / CE", got[1])
	}
	if emptyOK {
		t.Fatal("NetRecv on a drained buffer reported ok")
	}
}

// TestNetForwardPreservesSource pins the router data plane: a
// forwarded frame leaves with its original Src, while a plain send is
// stamped with the forwarder's own address.
func TestNetForwardPreservesSource(t *testing.T) {
	m := testMachine(t)
	defer m.Shutdown()
	const self, origin, dst = device.Addr(3), device.Addr(1), device.Addr(2)
	m.NIC().SetAddr(self)
	var out []device.Frame
	routeOnly(m, dst, func(f device.Frame) bool {
		out = append(out, f)
		return true
	})
	if _, err := m.Spawn(SpawnConfig{Name: "fwd", Body: func(ctx guest.Context) {
		//simlint:errno-ok carried bool is the assertion; this fixture injects no faults
		if ok, _ := ctx.NetForward(guest.Frame{Src: origin, Dst: dst, Flow: 9}); !ok {
			t.Error("NetForward dropped on an open route")
		}
		//simlint:errno-ok fault-free fixture; Src rewriting is the property under test
		ctx.NetSend(guest.Frame{Src: origin, Dst: dst}) // Src must be overwritten
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if len(out) != 2 {
		t.Fatalf("transmitted %d frames, want 2", len(out))
	}
	if out[0].Src != origin || out[0].Flow != 9 {
		t.Fatalf("forwarded frame = %+v, want Src %d preserved", out[0], origin)
	}
	if out[1].Src != self {
		t.Fatalf("sent frame Src = %d, want %d (stamped by the kernel)", out[1].Src, self)
	}
}

// TestRxBufferOverflowDrops pins the input-queue bound: frames past
// the configured ring capacity are dropped and counted, and the
// survivors are the earliest arrivals.
func TestRxBufferOverflowDrops(t *testing.T) {
	m := New(Config{Seed: 9, CPUHz: 1_000_000_000, RxBufFrames: 4})
	tick := m.TickCycles()
	for i := 0; i < 7; i++ {
		m.NIC().InjectRxFrame(tick+sim.Cycles(i), device.Frame{Flow: uint32(i)})
	}
	var drained []uint32
	if _, err := m.Spawn(SpawnConfig{Name: "reader", Body: func(ctx guest.Context) {
		seen := uint64(0)
		for seen < 7 {
			seen = ctx.NetRxWait(seen)
		}
		for {
			//simlint:errno-ok drain loop; ok bounds it and this fixture injects no faults
			f, ok, _ := ctx.NetRecv()
			if !ok {
				break
			}
			drained = append(drained, f.Flow)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if got := m.RxBufDropped(); got != 3 {
		t.Fatalf("RxBufDropped = %d, want 3 (7 frames into a 4-deep ring)", got)
	}
	if len(drained) != 4 || drained[0] != 0 || drained[3] != 3 {
		t.Fatalf("drained %v, want the first four arrivals", drained)
	}
}

// TestNetRxWaitWakesOnDelivery pins the blocking receive: a guest
// parked in NetRxWait resumes when an injected frame's rx interrupt
// delivers, and sees the updated count.
func TestNetRxWaitWakesOnDelivery(t *testing.T) {
	m := testMachine(t)
	tick := m.TickCycles()
	m.NIC().InjectRx(3 * tick) // one frame, mid-run
	var sawWait uint64
	if _, err := m.Spawn(SpawnConfig{Name: "reader", Body: func(ctx guest.Context) {
		sawWait = ctx.NetRxWait(0)
	}}); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if got := m.NIC().Received(); sawWait != 1 || got != 1 {
		t.Fatalf("NetRxWait = %d, Received = %d, want 1/1", sawWait, got)
	}
}

// TestNetRxWaitWithoutTrafficDeadlocks pins the upgraded deadlock
// detector: a solo machine whose only task blocks on network input
// that cannot arrive — leaving nothing but timer ticks pending — is
// a deadlock, not an idle loop that burns the step budget.
func TestNetRxWaitWithoutTrafficDeadlocks(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Spawn(SpawnConfig{Name: "reader", Body: func(ctx guest.Context) {
		ctx.NetRxWait(0) // no sender exists
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

// TestNextWorkAtIgnoresTimerOnlyQueues pins the cluster stall
// contract: a machine whose tasks are all blocked on network input
// reports no pending work even though its periodic tick is always
// scheduled, but an injected in-flight frame counts as work again.
func TestNextWorkAtIgnoresTimerOnlyQueues(t *testing.T) {
	m := testMachine(t)
	defer m.Shutdown()
	if _, err := m.Spawn(SpawnConfig{Name: "reader", Body: func(ctx guest.Context) {
		ctx.NetRxWait(0)
	}}); err != nil {
		t.Fatal(err)
	}
	// Advance past the blocking point in barrier slices.
	tick := m.TickCycles()
	if done, err := m.RunUntil(2 * tick); err != nil || done {
		t.Fatalf("RunUntil = (%v, %v), want paused", done, err)
	}
	if at, ok := m.NextWorkAt(); ok {
		t.Fatalf("NextWorkAt = (%d, true), want no work (only ticks pending)", at)
	}
	arrival := m.Clock().Now() + tick
	m.NIC().InjectRx(arrival)
	// With a frame in flight the machine has work again; the reported
	// time may be an earlier tick it still has to simulate first.
	if at, ok := m.NextWorkAt(); !ok || at > arrival {
		t.Fatalf("NextWorkAt = (%d, %v), want (<=%d, true) after frame injection", at, ok, arrival)
	}
	if done, err := m.RunUntil(m.Clock().Now() + 10*tick); err != nil || !done {
		t.Fatalf("RunUntil after delivery = (%v, %v), want finished", done, err)
	}
	if got := m.NIC().Received(); got != 1 {
		t.Fatalf("Received = %d, want 1", got)
	}
}

// TestRemoteIOBillsCurrentTask pins the remote-service hook: a
// remote I/O's service work lands on whichever task is current,
// exactly like a device IRQ.
func TestRemoteIOBillsCurrentTask(t *testing.T) {
	m := testMachine(t)
	tick := m.TickCycles()
	const svc = 40_000 // 40 µs at 1 GHz
	m.ServeRemoteIO(svc)
	m.RemoteIO(tick)
	p, _ := m.Spawn(SpawnConfig{Name: "job", Body: func(ctx guest.Context) {
		ctx.Compute(3 * sim.Cycles(tick))
	}})
	run(t, m)
	u, _ := m.UsageBy("process-aware", p.PID)
	sys, _ := m.UsageBy("process-aware", 0) // metering.SystemPID
	if sys.System < svc {
		t.Fatalf("system account = %d, want >= %d (process-aware diverts IRQ work)", sys.System, svc)
	}
	tscU, _ := m.UsageBy("tsc", p.PID)
	if tscU.System < svc {
		t.Fatalf("tsc system = %d, want >= %d (IRQ work billed to the current task)", tscU.System, svc)
	}
	_ = u
}

// TestClockNowMonotoneAndCharged pins the guest-visible monotonic
// clock: readings advance with the caller's own execution, include
// time spent off the CPU (sleep), and each read is a billed gettime
// syscall — the substrate ack senders arm real retransmission
// timeouts on.
func TestClockNowMonotoneAndCharged(t *testing.T) {
	m := testMachine(t)
	const burn = 1_000_000 // 1 ms at 1 GHz
	var t0, t1, t2 sim.Cycles
	p, err := m.Spawn(SpawnConfig{Name: "timer", Body: func(ctx guest.Context) {
		t0 = ctx.ClockNow()
		ctx.Compute(burn)
		t1 = ctx.ClockNow()
		ctx.Sleep(burn)
		t2 = ctx.ClockNow()
	}})
	if err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if !(t0 < t1 && t1 < t2) {
		t.Fatalf("clock not monotone: %d / %d / %d", t0, t1, t2)
	}
	if t1-t0 < burn {
		t.Fatalf("clock advanced %d across a %d-cycle compute", t1-t0, burn)
	}
	if t2-t1 < burn {
		t.Fatalf("clock advanced %d across a %d-cycle sleep (must tick while off the CPU)", t2-t1, burn)
	}
	if got := m.Stats(p.PID).Syscalls; got < 3 {
		t.Fatalf("Syscalls = %d, want ≥ 3 (each ClockNow is a billed gettime)", got)
	}
}
