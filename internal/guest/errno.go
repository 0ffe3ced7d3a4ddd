package guest

import "repro/internal/sim"

// Errno is a simulated POSIX error number, the value an injected
// syscall fault surfaces to the guest. Only the errnos the fault
// layer injects are defined; the numeric values match Linux so logs
// read naturally.
type Errno int

// The injectable errnos. EAGAIN and ENOMEM are transient — a caller
// with a time budget should back off and retry — while EIO models a
// hard device failure that retrying will not fix.
const (
	EIO    Errno = 5
	EAGAIN Errno = 11
	ENOMEM Errno = 12
)

func (e Errno) Error() string {
	switch e {
	case EIO:
		return "EIO"
	case EAGAIN:
		return "EAGAIN"
	case ENOMEM:
		return "ENOMEM"
	default:
		return "errno(unknown)"
	}
}

// Transient reports whether the error is worth retrying: EAGAIN and
// ENOMEM clear themselves (a queue drains, memory frees), EIO does
// not.
func (e Errno) Transient() bool {
	return e == EAGAIN || e == ENOMEM
}

// transient is the one retry rule of both retry paths, retryBackoff
// and RetryStep: an error is worth retrying only when it is an Errno
// that clears itself. Any other error, nil included, is final. The
// kernel's fault layer surfaces bare Errno values, so a type assertion
// classifies them without the allocation errors.As would make.
func transient(err error) bool {
	e, ok := err.(Errno)
	return ok && e.Transient()
}

// retryBackoff blocks the caller through an exponential backoff
// sequence bounded by budget cycles of virtual time, re-invoking
// attempt until it reports success, a non-transient error, or the
// deadline. It is deliberately lazy about the clock: ClockNow is only
// read after a failed attempt, so a caller whose first attempt
// succeeds (every call under a zero-fault spec) performs exactly the
// syscalls it performed before the fault layer existed.
func retryBackoff(ctx Context, budget sim.Cycles, attempt func() error) error {
	err := attempt()
	if budget == 0 || !transient(err) {
		return err
	}
	deadline := ctx.ClockNow() + budget
	step := budget / 16
	if step == 0 {
		step = 1
	}
	for {
		ctx.Sleep(step)
		err = attempt()
		if !transient(err) {
			return err
		}
		if ctx.ClockNow() >= deadline {
			return err
		}
		if step < budget/2 {
			step *= 2
		}
	}
}

// SendRetry is NetSend with a clock-driven retry budget: transient
// injected faults (EAGAIN/ENOMEM) are retried with exponential
// backoff for up to budget cycles of virtual time. carried reports
// the wire's verdict on the attempt that finally got through; err is
// the last injected fault when the budget ran out (or the fault was
// not transient). With no faults configured the cost is exactly one
// NetSend.
func SendRetry(ctx Context, f Frame, budget sim.Cycles) (carried bool, err error) {
	err = retryBackoff(ctx, budget, func() error {
		var e error
		carried, e = ctx.NetSend(f)
		return e
	})
	return carried, err
}

// RecvRetry is NetRecv with the same retry contract: an injected read
// fault is retried within budget, so a frame sitting in the receive
// buffer is eventually drained instead of stranded. ok is false only
// when the buffer is genuinely empty or the budget expired.
func RecvRetry(ctx Context, budget sim.Cycles) (f Frame, ok bool, err error) {
	err = retryBackoff(ctx, budget, func() error {
		var e error
		f, ok, e = ctx.NetRecv()
		return e
	})
	return f, ok, err
}
