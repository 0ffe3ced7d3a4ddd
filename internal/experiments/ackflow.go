// ECN-aware ack-paced flows: the well-behaved traffic that shares a
// routed fabric with the attacks. A sender paces a fixed transfer
// under a congestion window; the receiver's echo daemon acks each
// data frame back to the frame's own source address (per-flow
// addressing — the responder acks specific senders, not "the
// uplink"), echoing any CE congestion mark a RED queue stamped on the
// way. The sender halves its window on a mark and grows it additively
// on a clean ack, so an ECN-capable flow backs off under congestion
// instead of bleeding tail-drops.
//
// All three guests here are resumable guests — plain values that
// guest.Resumable binds, spawned as SpawnConfig.Step — so a fleet of
// them costs a few words of state per guest instead of a coroutine
// stack.
package experiments

import (
	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/sim"
)

// floodGen is the resumable packet generator behind floodBodyStep:
// send a slot's frame (retrying transients within half a period),
// carry the freq%pps remainder into the interval, sleep the jittered
// slot, and repeat until the budget of packets is offered.
type floodGen struct {
	base     sim.Cycles
	rem, pps uint64
	packets  uint64
	frame    guest.Frame
	n, frac  uint64
	retry    guest.RetryStep
	pc       uint8 // 0: first activation; 1: a retried send's reply; 2: slot slept
}

func (g *floodGen) Activate(ctx guest.Context, r guest.Resume) bool {
	switch g.pc {
	case 1:
		// Any send error is dropped — a transient injected fault is
		// retried within half a period; a hard fault (or exhausted
		// budget) forfeits this slot, and an attacker's lost packet is
		// nobody's problem — then the slot is slept out.
		switch g.retry.Next(ctx, &r) {
		case guest.RetryAgain:
			//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
			ctx.NetSend(g.frame)
			return true
		case guest.RetryPosted:
			return true
		}
		interval := g.base
		g.frac += g.rem
		if g.frac >= g.pps {
			g.frac -= g.pps
			interval++
		}
		if interval == 0 {
			interval = 1
		}
		g.pc = 2
		ctx.Sleep(ctx.Rand().Jitter(interval, interval/4+1))
		return true
	case 2:
		g.n++
	}
	if g.n >= g.packets {
		return false
	}
	g.pc = 1
	g.retry.Arm(g.base / 2)
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetSend(g.frame)
	return true
}

// floodBodyStep returns the packet generator as a resumable state
// machine offering `packets` copies of `frame` at a nominal `pps`
// through the billed tx path. The inter-send interval carries the
// freq%pps remainder (like the local flood generator), so the sleep
// schedule itself does not drift; each send's billed kernel time
// still stretches the effective period, so the offered rate runs
// somewhat below nominal — the sending link's Sent counter records
// what actually went out.
func floodBodyStep(freq sim.Hz, pps, packets uint64, frame guest.Frame) guest.Step {
	step, _ := guest.Resumable(floodGen{
		base:    sim.Cycles(uint64(freq) / pps),
		rem:     uint64(freq) % pps,
		pps:     pps,
		packets: packets,
		frame:   frame,
	})
	return step
}

// AckFlowConfig parameterises one ack-paced transfer.
type AckFlowConfig struct {
	// Peer is the data destination's fabric address.
	Peer cluster.Addr
	// Flow tags the flow's frames; the echo daemon acks only matching
	// frames and silently drains everything else.
	Flow uint32
	// Frames is the transfer length: the sender runs until this many
	// acks arrive (or it gives up), sending at most 4x Frames data
	// frames, retransmissions included.
	Frames uint64
	// Window is the initial and maximum congestion window in frames;
	// zero selects 8.
	Window uint64
	// PaceCycles is the sender's inter-send pacing and its poll tick
	// while the window is closed. Required (the guest has no clock
	// scale of its own).
	PaceCycles sim.Cycles
	// TimeoutCycles, when nonzero, replaces the idle-tick heuristic
	// (ackIdleTicks) with a real retransmission timeout on the guest-visible
	// monotonic clock (Context.ClockNow): outstanding frames are
	// written off — or, with the budget spent, the transfer abandoned
	// — once that long passes with no ack progress, independent of
	// how often the sender happens to poll. Zero keeps the idle-tick
	// behaviour bit-for-bit.
	TimeoutCycles sim.Cycles
	// FrameBytes sizes the flow's data frames on the wire; zero sends
	// minimum-size frames (the pre-byte model).
	FrameBytes uint32
}

// AckFlowStats is one transfer's harvest, written by the sender
// routine before it exits.
type AckFlowStats struct {
	// Sent counts data frames transmitted, retransmissions included.
	Sent uint64
	// Acked counts acks received; the transfer completed when Acked
	// reached the configured frame count.
	Acked uint64
	// Marks counts acks carrying the ECE congestion echo.
	Marks uint64
	// Backoffs counts window halvings taken on those echoes.
	Backoffs uint64
	// Lost counts frames written off by the go-back timeout.
	Lost uint64
	// Timeouts counts retransmission-timeout firings (clock-driven
	// with TimeoutCycles set, idle-tick expiries otherwise).
	Timeouts uint64
	// DoneAt is the guest clock when the transfer finished (zero
	// unless TimeoutCycles armed the clock) — the flow's completion
	// instant, comparable across qdisc configurations.
	DoneAt sim.Cycles
	// GaveUp reports the sender abandoning the transfer with its send
	// budget exhausted and no acks arriving — or its sends failing
	// persistently under injected faults.
	GaveUp bool
	// SendErrors counts sends that failed with an injected syscall
	// fault even after the retry budget (zero on healthy machines).
	SendErrors uint64
	// RecvErrors counts polls that died on an injected read fault;
	// the acks stay buffered and a later poll drains them.
	RecvErrors uint64
}

// ackIdleTicks is how many silent poll ticks the sender waits before
// declaring outstanding frames lost (go-back) — or, with its send
// budget of 4x Frames spent, giving up — unless TimeoutCycles arms the
// clock-driven timeout instead.
const ackIdleTicks = 128

// ackSender is the resumable sending guest. One activation runs from
// resume to the next kernel request; the transfer's whole position —
// window, counters, timeout clocks — lives in this value, not a
// coroutine stack. Control flow mirrors the original blocking loop
// statement for statement, so the sender makes the requests that loop
// made. It fills stats, a host pointer, so it is spawned without a
// fork.
type ackSender struct {
	cfg   AckFlowConfig
	stats *AckFlowStats

	maxW, budget uint64
	useClock     bool
	data         guest.Frame

	window, sent, acked, lost uint64
	idle, sendFails           int
	lastProgress              sim.Cycles
	progress                  bool

	retry guest.RetryStep
	pc    uint8
}

// ackSender program counter: which reply the next activation carries.
const (
	asStart         = iota // none: the first activation
	asInitClock            // the clock read at the start
	asRecv                 // an ack poll's read
	asProgressClock        // the clock read after ack progress
	asSend                 // a retried data send's
	asSendSlept            // the pacing sleep after a send
	asPollSlept            // the poll sleep while the window is closed
	asTimeoutClock         // the clock read of a timeout check
	asResetClock           // the clock read after a go-back
	asDoneClock            // the clock read at the end of the transfer
)

func (g *ackSender) Activate(ctx guest.Context, r guest.Resume) bool {
	switch g.pc {
	case asStart:
		g.window = g.maxW
		if g.useClock {
			return g.readClock(ctx, asInitClock)
		}
	case asInitClock, asProgressClock, asResetClock:
		g.lastProgress = sim.Cycles(r.Ret)
	case asRecv:
		return g.afterRecv(ctx, r)
	case asSend:
		return g.afterSend(ctx, r)
	case asPollSlept:
		if g.useClock {
			return g.readClock(ctx, asTimeoutClock)
		}
		g.idle++
		return g.timeoutDecide(ctx, g.idle >= ackIdleTicks)
	case asTimeoutClock:
		return g.timeoutDecide(ctx, sim.Cycles(r.Ret)-g.lastProgress >= g.cfg.TimeoutCycles)
	case asDoneClock:
		g.stats.DoneAt = sim.Cycles(r.Ret)
		return false
	}
	return g.outer(ctx)
}

// readClock posts a clock read whose reply pc handles.
func (g *ackSender) readClock(ctx guest.Context, pc uint8) bool {
	g.pc = pc
	ctx.ClockNow()
	return true
}

// pace posts a pacing sleep whose end pc handles.
func (g *ackSender) pace(ctx guest.Context, pc uint8) bool {
	g.pc = pc
	ctx.Sleep(g.cfg.PaceCycles)
	return true
}

// outer is the transfer's top-of-loop: done check, then a fresh drain
// of the ack queue. Not an activation boundary — it runs inline
// inside whichever activation reached it.
func (g *ackSender) outer(ctx guest.Context) bool {
	if g.acked >= g.cfg.Frames {
		return g.finish(ctx)
	}
	g.progress = false
	g.pc = asRecv
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetRecv()
	return true
}

func (g *ackSender) afterRecv(ctx guest.Context, r guest.Resume) bool {
	if r.Err != nil {
		// Injected read fault: the acks stay buffered, so surface the
		// error and re-poll after a pace tick instead of mistaking the
		// fault for a drained queue.
		g.stats.RecvErrors++
		return g.afterDrain(ctx)
	}
	if !r.OK {
		return g.afterDrain(ctx)
	}
	if f := r.Frame; f.Flow == g.cfg.Flow {
		g.acked++
		g.progress = true
		// Back off on the data path's congestion echo only; a CE
		// stamped on the ack itself by the return path is not this
		// flow's signal.
		if f.ECE {
			g.stats.Marks++
			if g.window > 1 {
				g.window /= 2
				g.stats.Backoffs++
			}
		} else if g.window < g.maxW {
			g.window++
		}
	}
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetRecv()
	return true
}

func (g *ackSender) afterDrain(ctx guest.Context) bool {
	if g.progress {
		g.idle = 0
		if g.useClock {
			return g.readClock(ctx, asProgressClock)
		}
		return g.outer(ctx)
	}
	// Signed: an ack for a frame already written off as lost would
	// otherwise underflow the outstanding count.
	outstanding := int64(g.sent) - int64(g.acked) - int64(g.lost)
	if outstanding < 0 {
		outstanding = 0
	}
	if g.sent < g.budget && uint64(outstanding) < g.window {
		g.pc = asSend
		g.retry.Arm(4 * g.cfg.PaceCycles)
		//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
		ctx.NetSend(g.data)
		return true
	}
	// Window closed or budget spent: poll for acks. The
	// retransmission decision is clock-driven when TimeoutCycles is
	// armed — real elapsed virtual time since the last ack, whatever
	// the poll cadence — and the old idle-tick count otherwise.
	return g.pace(ctx, asPollSlept)
}

func (g *ackSender) afterSend(ctx guest.Context, r guest.Resume) bool {
	switch g.retry.Next(ctx, &r) {
	case guest.RetryAgain:
		//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
		ctx.NetSend(g.data)
		return true
	case guest.RetryPosted:
		return true
	}
	if r.Err != nil {
		// The frame never left: it is not outstanding, so do not count
		// it sent. Persistent failure (a hard EIO device, or 100%
		// injection) abandons the transfer instead of spinning forever.
		g.stats.SendErrors++
		g.sendFails++
		if g.sendFails >= ackIdleTicks {
			g.stats.GaveUp = true
			return g.finish(ctx)
		}
		return g.pace(ctx, asSendSlept)
	}
	g.sendFails = 0
	g.sent++
	return g.pace(ctx, asSendSlept)
}

func (g *ackSender) timeoutDecide(ctx guest.Context, timedOut bool) bool {
	if !timedOut {
		return g.outer(ctx)
	}
	g.stats.Timeouts++
	if g.sent >= g.budget {
		g.stats.GaveUp = true
		return g.finish(ctx)
	}
	if fresh := int64(g.sent) - int64(g.acked) - int64(g.lost); fresh > 0 {
		g.stats.Lost += uint64(fresh)
	}
	g.lost = g.sent - g.acked
	g.idle = 0
	if g.useClock {
		return g.readClock(ctx, asResetClock)
	}
	return g.outer(ctx)
}

func (g *ackSender) finish(ctx guest.Context) bool {
	g.stats.Sent, g.stats.Acked = g.sent, g.acked
	if g.useClock {
		return g.readClock(ctx, asDoneClock)
	}
	return false
}

// AckPacedSenderStep returns the flow's sending guest as a resumable
// state machine, to spawn as SpawnConfig.Step. stats must outlive the
// run; the guest fills it as its last action.
func AckPacedSenderStep(cfg AckFlowConfig, stats *AckFlowStats) guest.Step {
	g := ackSender{cfg: cfg, stats: stats, maxW: cfg.Window}
	if g.maxW == 0 {
		g.maxW = 8
	}
	g.budget = 4 * cfg.Frames
	g.useClock = cfg.TimeoutCycles > 0
	g.data = guest.Frame{Dst: cfg.Peer, Flow: cfg.Flow, ECN: true, Bytes: cfg.FrameBytes}
	step, _ := guest.Resumable(g)
	return step
}

// ackEchoGen is the resumable echo daemon: block for traffic, drain
// the receive buffer with briefly-retried reads, and ack each
// matching data frame back to its own source.
type ackEchoGen struct {
	flow  uint32
	seen  uint64
	ack   guest.Frame
	retry guest.RetryStep
	pc    uint8
}

// ackEchoGen program counter: which reply the next activation carries.
const (
	aeStart = iota // none: the first activation
	aeWait         // NetRxWait's delivery count
	aeRecv         // a retried read's
	aeSend         // a retried ack send's
)

func (g *ackEchoGen) Activate(ctx guest.Context, r guest.Resume) bool {
	switch g.pc {
	case aeStart:
		g.wait(ctx)
	case aeWait:
		g.seen = r.Ret
		g.recv(ctx)
	case aeRecv:
		switch g.retry.Next(ctx, &r) {
		case guest.RetryAgain:
			//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
			ctx.NetRecv()
		case guest.RetryFinal:
			if r.Err != nil || !r.OK {
				g.wait(ctx)
				break
			}
			f := r.Frame
			if f.Flow != g.flow {
				g.recv(ctx)
				break
			}
			g.ack = guest.Frame{Dst: f.Src, Flow: f.Flow, ECN: true, ECE: f.CE}
			g.pc = aeSend
			g.retry.Arm(ackEchoRetryCycles)
			//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
			ctx.NetSend(g.ack)
		}
	case aeSend:
		// A persistently failing ack send is the sender's
		// retransmission timeout's problem, so its error is dropped.
		switch g.retry.Next(ctx, &r) {
		case guest.RetryAgain:
			//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
			ctx.NetSend(g.ack)
		case guest.RetryFinal:
			g.recv(ctx)
		}
	}
	return true
}

// wait blocks for the next delivery.
func (g *ackEchoGen) wait(ctx guest.Context) {
	g.pc = aeWait
	ctx.NetRxWait(g.seen)
}

// recv drains the next frame with a read retried briefly, so a
// buffered data frame is not stranded behind a transient fault until
// the next delivery wakes the daemon.
func (g *ackEchoGen) recv(ctx guest.Context) {
	g.pc = aeRecv
	g.retry.Arm(ackEchoRetryCycles)
	//simlint:errno-ok resumable post: the errno arrives in the next activation's Resume
	ctx.NetRecv()
}

// AckEchoStep returns the receive-side echo daemon as a resumable
// state machine: for every data frame of the given flow it sends one
// ack to the frame's own Src, raising the ack's ECE bit when the data
// frame arrived CE-marked; frames of other flows (an attacker's junk)
// are drained and ignored. The daemon never exits — run it on a
// cluster machine marked Service.
func AckEchoStep(flow uint32) guest.Step {
	step, _ := guest.Resumable(ackEchoGen{flow: flow})
	return step
}

// ackEchoRetryCycles bounds the echo daemon's backoff on an injected
// fault: long enough to outlast a transient, far shorter than any
// sender's retransmission timeout.
const ackEchoRetryCycles sim.Cycles = 1 << 16
