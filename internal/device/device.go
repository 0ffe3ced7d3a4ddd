// Package device models the interrupt-raising hardware the attacks
// exploit: a network adapter whose receive interrupts fire per packet
// (interrupt flooding, Fig. 10) and a swap disk whose completion
// latency blocks faulting processes (exception flooding, Fig. 11).
// Devices know nothing about processes; they schedule deliveries on
// the machine's event queue and invoke a sink callback supplied by
// the kernel, which charges handler time per the active accountant.
package device

import "repro/internal/sim"

// IRQ identifies an interrupt line.
type IRQ int

// Interrupt lines in the simulated machine.
const (
	IRQTimer IRQ = 0
	IRQNIC   IRQ = 1
	IRQDisk  IRQ = 2
)

func (i IRQ) String() string {
	switch i {
	case IRQTimer:
		return "timer"
	case IRQNIC:
		return "nic"
	case IRQDisk:
		return "disk"
	default:
		return "unknown"
	}
}

// Addr is a fabric address: the network-visible identity of one
// machine's NIC. Zero means "unaddressed" (a solo machine outside any
// fabric); a cluster assigns each member a nonzero address.
type Addr uint16

// Frame is one addressed network frame. Frames are plain values —
// they travel by copy through pipes, NIC queues, and the kernel's
// receive buffer, so carrying them allocates nothing.
type Frame struct {
	// Src and Dst are fabric addresses. The kernel's send path stamps
	// Src with the sending NIC's own address; a forwarding router
	// retransmits frames with Src preserved, which is what lets a
	// receiver ack the original sender through intermediate hops.
	Src, Dst Addr
	// Flow distinguishes traffic classes sharing a path (a responder
	// acks its flow's data frames and drains everything else).
	Flow uint32
	// Bytes is the frame's payload size; zero means a minimum-size
	// frame (WireBytes clamps it to MinFrameBytes). Wires serialise
	// byte-accurately: a frame's service time scales with its wire
	// occupancy, so zero-Bytes frames replay the per-frame slot model
	// bit-for-bit.
	Bytes uint32
	// ECN marks the frame ECN-capable: a RED queue under congestion
	// marks it (sets CE) instead of early-dropping it.
	ECN bool
	// CE is the congestion-experienced mark, set by a RED queue on an
	// ECN-capable frame. A responder echoes the mark in its ack so
	// the sender can back off.
	CE bool
	// ECE is the congestion echo a responder sets on its ack when the
	// data frame it acknowledges carried CE. It is distinct from CE:
	// a RED queue on the ack's own return path may stamp the ack with
	// a fresh CE, which the sender ignores — only the echo of the
	// data path's congestion drives backoff.
	ECE bool
}

// NIC is the simulated network adapter. When flooding is active it
// raises one receive interrupt per arriving packet. The paper floods
// the victim host with junk IP packets from a second PC; Rate models
// that sender's packet rate. On the transmit side the NIC knows no
// wiring: it keeps its fabric address, hands each frame to the one
// transmit function its owner sets, and counts what was carried and
// what was dropped.
type NIC struct {
	queue   *sim.EventQueue
	clock   *sim.Clock
	rng     *sim.Rand
	deliver func() // kernel's IRQ entry for IRQNIC

	rate     uint64 // packets per second
	period   uint64 // Freq/rate, the whole cycles between packets
	rem      uint64 // Freq%rate, the fraction rateFrac accumulates
	rateFrac uint64 // rem accumulator carried across packets
	jitter   bool
	active   bool
	pending  *sim.Event
	received uint64
	rxFire   func() // reusable per-packet event callback
	extFire  func() // reusable callback for externally injected packets

	// Addressed receive path: injected frames wait in a min-heap
	// ordered exactly like their delivery events, so frameFire pops
	// the frame belonging to the event that is firing. lastFrame
	// holds that frame for the kernel's rx handler to collect.
	frameFire func()
	frameQ    []pendingFrame
	frameSeq  uint64
	lastFrame Frame
	hasFrame  bool

	// Transmit path: tx is the owner's side of the wire (a cluster
	// sets it when it plugs the machine in) and resolves each frame's
	// destination.
	addr      Addr
	tx        func(Frame) bool
	txCarried uint64
	txDropped uint64
}

// pendingFrame is one injected frame awaiting its delivery event.
type pendingFrame struct {
	at  sim.Cycles
	seq uint64
	f   Frame
}

// Restore tags for "nic-rx" events (sim.Event.Tag): which of the
// NIC's three reusable fire callbacks a pending delivery uses, so a
// checkpoint restore can rebuild the Fire closure from the tag alone.
const (
	nicRxFlood uint64 = 1 // rxFire: the local flood generator's next packet
	nicRxExt   uint64 = 2 // extFire: an injected payload-less packet
	nicRxFrame uint64 = 3 // frameFire: an injected addressed frame
)

// NewNIC wires a NIC to the machine's event queue and clock. deliver
// is invoked once per received packet in event context.
func NewNIC(queue *sim.EventQueue, clock *sim.Clock, rng *sim.Rand, deliver func()) *NIC {
	n := &NIC{queue: queue, clock: clock, rng: rng, deliver: deliver}
	n.rxFire = func() {
		n.pending = nil
		if !n.active {
			return
		}
		n.received++
		n.deliver()
		if n.active {
			n.scheduleNext()
		}
	}
	n.extFire = n.DeliverRx
	n.frameFire = func() {
		n.lastFrame = n.popFrame()
		n.hasFrame = true
		n.received++
		n.deliver()
		n.hasFrame = false
	}
	return n
}

// InjectRx schedules delivery of one externally generated packet with
// no frame payload (a remote-swap request notification) at virtual
// time at. Injected packets are independent events — each raises one
// receive interrupt — and are unaffected by StartFlood/StopFlood,
// which drive the local flood generator only.
func (n *NIC) InjectRx(at sim.Cycles) {
	n.queue.ScheduleTagged(at, "nic-rx", nicRxExt, n.extFire)
}

// DeliverRx delivers one externally generated packet with no frame
// payload now, in event context: the receive interrupt an InjectRx
// event raises when it fires. A machine that keeps its own backlog of
// such packets (a swap host's remote I/O) calls it from the backlog's
// head event.
func (n *NIC) DeliverRx() {
	n.received++
	n.deliver()
}

// InjectRxFrame schedules delivery of one addressed frame (arriving
// over a cluster link) at virtual time at. The frame raises one
// receive interrupt and is handed to the kernel's receive buffer,
// where guests read it via NetRecv.
func (n *NIC) InjectRxFrame(at sim.Cycles, f Frame) {
	n.pushFrame(pendingFrame{at: at, seq: n.frameSeq, f: f})
	n.frameSeq++
	n.queue.ScheduleTagged(at, "nic-rx", nicRxFrame, n.frameFire)
}

// TakeRxFrame returns the frame belonging to the receive interrupt
// currently being delivered, if any (local flood packets and
// payload-less injections carry none). The kernel's rx handler calls
// it exactly once per delivery.
func (n *NIC) TakeRxFrame() (Frame, bool) {
	if !n.hasFrame {
		return Frame{}, false
	}
	n.hasFrame = false
	return n.lastFrame, true
}

// pushFrame/popFrame maintain the pending-frame min-heap ordered by
// (arrival time, injection order) — the same order the event queue
// fires equal-time events in, so each frameFire pops its own frame.
func (n *NIC) pushFrame(p pendingFrame) {
	n.frameQ = append(n.frameQ, p)
	i := len(n.frameQ) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !frameLess(n.frameQ[i], n.frameQ[parent]) {
			break
		}
		n.frameQ[i], n.frameQ[parent] = n.frameQ[parent], n.frameQ[i]
		i = parent
	}
}

func (n *NIC) popFrame() Frame {
	top := n.frameQ[0].f
	last := len(n.frameQ) - 1
	n.frameQ[0] = n.frameQ[last]
	n.frameQ[last] = pendingFrame{}
	n.frameQ = n.frameQ[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && frameLess(n.frameQ[l], n.frameQ[small]) {
			small = l
		}
		if r < last && frameLess(n.frameQ[r], n.frameQ[small]) {
			small = r
		}
		if small == i {
			break
		}
		n.frameQ[i], n.frameQ[small] = n.frameQ[small], n.frameQ[i]
		i = small
	}
	return top
}

func frameLess(a, b pendingFrame) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Received reports total packets delivered since construction.
func (n *NIC) Received() uint64 { return n.received }

// ScheduleEgressTagged schedules fn at virtual time at on this NIC's
// machine event queue: the service timer a queueing-discipline pipe
// arms so backlogged frames still drain after the last sender goes
// quiet. The event counts as pending non-timer work, so a cluster
// does not mistake a machine waiting on queued frames for a stall.
// tag is the restore tag (a cluster passes the pipe's id, so a
// checkpoint restore can rebuild the service timer's Fire closure
// from the event image).
func (n *NIC) ScheduleEgressTagged(at sim.Cycles, tag uint64, fn func()) {
	n.queue.ScheduleTagged(at, "pipe-service", tag, fn)
}

// SetAddr assigns this NIC its fabric address (a cluster does this at
// wiring time). The kernel's send path stamps outgoing frames' Src
// with it.
func (n *NIC) SetAddr(a Addr) { n.addr = a }

// Addr reports the NIC's fabric address (zero outside any fabric).
func (n *NIC) Addr() Addr { return n.addr }

// SetTx sets the function each transmitted frame is handed to (a
// cluster does this when it plugs the machine in). tx is invoked once
// per frame in the sender's context and reports whether the frame was
// carried (false: no route to its destination, or dropped at the
// wire's queue or by a dead destination).
func (n *NIC) SetTx(tx func(Frame) bool) { n.tx = tx }

// Transmit hands one frame to the transmit function. It reports
// whether the frame was carried; a frame refused downstream, or sent
// by a NIC with no transmit function (a machine outside any fabric),
// counts as a transmit drop. The kernel charges the tx-path CPU time
// around this call.
func (n *NIC) Transmit(f Frame) bool {
	if n.tx == nil || !n.tx(f) {
		n.txDropped++
		return false
	}
	n.txCarried++
	return true
}

// Transmitted reports frames successfully handed to a wire.
func (n *NIC) Transmitted() uint64 { return n.txCarried }

// TxDropped reports transmit attempts that were not carried.
func (n *NIC) TxDropped() uint64 { return n.txDropped }

// Active reports whether a flood is in progress.
func (n *NIC) Active() bool { return n.active }

// StartFlood begins delivering packets at the given rate (packets per
// second) with small deterministic inter-arrival jitter. A second
// call replaces the current rate.
func (n *NIC) StartFlood(packetsPerSecond uint64) {
	n.StopFlood()
	if packetsPerSecond == 0 {
		return
	}
	freq := uint64(n.clock.Freq())
	n.rate, n.period, n.rem = packetsPerSecond, freq/packetsPerSecond, freq%packetsPerSecond
	n.jitter = true
	n.active = true
	n.scheduleNext()
}

// StopFlood cancels any pending delivery and resets the generator's
// rate, jitter, and fractional-interval state, so a later StartFlood
// at the same rate replays exactly like a flood started on a fresh
// NIC (given the same random-source position).
func (n *NIC) StopFlood() {
	if n.pending != nil {
		n.queue.Cancel(n.pending)
		n.pending = nil
	}
	n.active = false
	n.rate, n.period, n.rem = 0, 0, 0
	n.rateFrac = 0
	n.jitter = false
}

func (n *NIC) scheduleNext() {
	// Freq/rate truncates; carry the remainder across packets so the
	// achieved rate matches the requested one over any horizon instead
	// of drifting high by up to rate/Freq packets per second.
	interval := sim.Cycles(n.period)
	n.rateFrac += n.rem
	if n.rateFrac >= n.rate {
		n.rateFrac -= n.rate
		interval++
	}
	if interval == 0 {
		interval = 1
	}
	if n.jitter {
		interval = n.rng.Jitter(interval, interval/4+1)
		if interval == 0 {
			interval = 1
		}
	}
	n.pending = n.queue.ScheduleTagged(n.clock.Now()+interval, "nic-rx", nicRxFlood, n.rxFire)
}

// Clone returns a NIC for a restored machine, wired to the new
// machine's queue, clock, rng, and IRQ-delivery sink, carrying over
// all generator, receive-path, and counter state. The transmit
// function is deliberately NOT cloned: it is a closure into external
// wiring that the owner sets again after restore.
func (n *NIC) Clone(queue *sim.EventQueue, clock *sim.Clock, rng *sim.Rand, deliver func()) *NIC {
	c := NewNIC(queue, clock, rng, deliver)
	c.rate, c.period, c.rem, c.rateFrac = n.rate, n.period, n.rem, n.rateFrac
	c.jitter, c.active = n.jitter, n.active
	c.received = n.received
	if len(n.frameQ) > 0 {
		c.frameQ = append([]pendingFrame(nil), n.frameQ...)
	}
	c.frameSeq = n.frameSeq
	c.lastFrame, c.hasFrame = n.lastFrame, n.hasFrame
	c.addr = n.addr
	c.txCarried, c.txDropped = n.txCarried, n.txDropped
	return c
}

// RestoreFire resolves a pending "nic-rx" event's restore tag to the
// matching reusable fire callback on this (restored) NIC.
func (n *NIC) RestoreFire(tag uint64) (func(), bool) {
	switch tag {
	case nicRxFlood:
		return n.rxFire, true
	case nicRxExt:
		return n.extFire, true
	case nicRxFrame:
		return n.frameFire, true
	}
	return nil, false
}

// FloodTag reports whether a "nic-rx" restore tag identifies the
// flood generator's own in-flight delivery (the one event the NIC
// holds a cancellable pointer to).
func FloodTag(tag uint64) bool { return tag == nicRxFlood }

// AdoptPending re-points the flood generator's in-flight delivery at
// the restored event, so StopFlood on the restored machine cancels
// the right entry.
func (n *NIC) AdoptPending(e *sim.Event) { n.pending = e }

// DiskChannel is the occupancy state of one physical swap device:
// the completion horizons of its read and write channels. Each Disk
// owns a private channel by default; a cluster may point several
// machines' Disks at one shared channel so their I/O contends for the
// same spindle (a swap partition on shared network storage).
type DiskChannel struct {
	readBusy  sim.Cycles
	writeBusy sim.Cycles
}

// NewDiskChannel returns an idle shared-device state.
func NewDiskChannel() *DiskChannel { return &DiskChannel{} }

// Clone returns an independent channel with the same completion
// horizons (checkpoint restore).
func (ch *DiskChannel) Clone() *DiskChannel {
	cp := *ch
	return &cp
}

// Disk is the swap device. Reads (swap-ins, which block a faulting
// process) serialise on the read channel; writebacks go through a
// separate write channel modelling the drive's write cache and the
// kernel's background writeback, so a dirty-page storm cannot starve
// demand paging. Both channels have the same per-page latency.
//
// Pending writebacks wait in a Backlog, and only its head is in the
// event queue. On a private channel completion times never decrease,
// so FIFO order is firing order. A shared channel can complete a
// write before this disk's FIFO tail (another machine's clock capped
// the channel lower); such a write is scheduled straight into the
// queue instead.
type Disk struct {
	queue   *sim.EventQueue
	clock   *sim.Clock
	latency sim.Cycles

	ch     *DiskChannel
	notify func(complete sim.Cycles)
	ios    uint64
	writes uint64

	// writeback is the one completion callback every write fires;
	// headFire pops the FIFO head, enters the next head in the queue,
	// then calls it.
	writeback func()
	headFire  func()
	wq        Backlog
}

// Restore tags for "disk-write" events (sim.Event.Tag): a write
// scheduled straight into the queue fires the writeback callback,
// and the FIFO head fires headFire.
const (
	diskWriteDirect uint64 = 0
	diskWriteHead   uint64 = 1
)

// NewDisk returns a disk with the given per-page access latency.
// writeback is called in event context when each background write
// completes.
func NewDisk(queue *sim.EventQueue, clock *sim.Clock, latency sim.Cycles, writeback func()) *Disk {
	d := &Disk{queue: queue, clock: clock, latency: latency, ch: &DiskChannel{}, writeback: writeback}
	d.headFire = func() {
		d.wq.Pop()
		// Enter the next head before the callback runs: the kernel's
		// completion interrupt advances time and fires due events.
		if d.wq.Len() > 0 {
			next := d.wq.Head()
			d.queue.ScheduleReserved(next.At, next.Seq, "disk-write", diskWriteHead, d.headFire)
		}
		d.writeback()
	}
	return d
}

// Share points this disk at a shared device channel, so its I/O
// serialises against every other disk sharing the channel. Call
// before any I/O is submitted.
func (d *Disk) Share(ch *DiskChannel) { d.ch = ch }

// Channel returns the device channel this disk's I/O serialises on.
func (d *Disk) Channel() *DiskChannel { return d.ch }

// Clone returns a Disk for a restored machine, wired to the new
// machine's queue, clock and writeback callback, with the channel
// horizons, the writeback FIFO and the I/O counters carried over. A
// disk that shared a channel must be re-pointed (Share) at the
// restored shared channel afterwards; the OnIO hook, a closure into
// external wiring, is likewise the owner's to re-register.
func (d *Disk) Clone(queue *sim.EventQueue, clock *sim.Clock, writeback func()) *Disk {
	c := NewDisk(queue, clock, d.latency, writeback)
	c.ch = d.ch.Clone()
	c.ios, c.writes = d.ios, d.writes
	c.wq = d.wq.Clone()
	return c
}

// OnIO registers a per-submission hook invoked with each I/O's
// completion time, in the submitter's context. A cluster uses it to
// bill the host serving a remotely mounted swap device.
func (d *Disk) OnIO(fn func(complete sim.Cycles)) { d.notify = fn }

// IOs reports the number of completed read accesses.
func (d *Disk) IOs() uint64 { return d.ios }

// Writes reports the number of submitted writebacks.
func (d *Disk) Writes() uint64 { return d.writes }

// PendingWrites reports the writebacks waiting in the disk's FIFO,
// its head included. A shared-channel write scheduled straight into
// the event queue is not counted.
func (d *Disk) PendingWrites() int { return d.wq.Len() }

// RestoreFire resolves a pending "disk-write" event's restore tag to
// the matching callback on this (restored) disk.
func (d *Disk) RestoreFire(tag uint64) (func(), bool) {
	switch tag {
	case diskWriteDirect:
		return d.writeback, true
	case diskWriteHead:
		return d.headFire, true
	}
	return nil, false
}

// Submit enqueues one blocking page read (swap-in) and schedules done
// at completion. Reads serialise behind in-flight reads only.
func (d *Disk) Submit(done func()) { d.SubmitTagged(0, done) }

// SubmitTagged is Submit with a restore tag recorded on the
// completion event (the kernel passes the faulting PID, so a restore
// can rebuild the wake-up closure from the event image alone).
func (d *Disk) SubmitTagged(tag uint64, done func()) {
	start := d.clock.Now()
	if d.ch.readBusy > start {
		start = d.ch.readBusy
	}
	complete := start + d.latency
	d.ch.readBusy = complete
	d.ios++
	d.queue.ScheduleTagged(complete, "disk-read", tag, done)
	if d.notify != nil {
		d.notify(complete)
	}
}

// maxWriteBacklog caps the write channel's backlog, in pages: a write
// submitted when the channel is already this far behind is absorbed
// by the cache and completes at the backlog horizon instead of
// queueing further out, modelling writeback throttling rather than
// unbounded queueing.
const maxWriteBacklog = 64

// SubmitWrite enqueues one background writeback (swap-out), which
// calls the disk's writeback callback at completion. No completion is
// ever scheduled past now + maxWriteBacklog*latency (the backlog
// horizon), and writeBusy always reflects the last scheduled
// completion so a later submit sees a consistent channel.
func (d *Disk) SubmitWrite() {
	now := d.clock.Now()
	start := d.ch.writeBusy
	if start < now {
		start = now
	}
	complete := start + d.latency
	if horizon := now + sim.Cycles(maxWriteBacklog)*d.latency; complete > horizon {
		complete = horizon
	}
	d.ch.writeBusy = complete
	d.writes++
	seq := d.queue.Reserve()
	switch {
	case d.wq.Len() == 0:
		d.wq.Push(Pending{At: complete, Seq: seq})
		d.queue.ScheduleReserved(complete, seq, "disk-write", diskWriteHead, d.headFire)
	case complete >= d.wq.Tail().At:
		d.wq.Push(Pending{At: complete, Seq: seq})
	default:
		// Earlier than the FIFO's tail: only a shared channel does this.
		d.queue.ScheduleReserved(complete, seq, "disk-write", diskWriteDirect, d.writeback)
	}
	if d.notify != nil {
		d.notify(complete)
	}
}
