package guest

import "reflect"

// This file defines the fork protocol for resumable guests: how a
// checkpoint clones a flyweight guest's execution state. A resumable
// guest's entire state is its continuation (a Step, usually a method
// value bound to the guest's state struct) plus that struct's fields,
// so cloning is: deep-copy the struct, then return the clone's method
// value for the same continuation the original was parked on.
//
// Continuations cannot be compared directly (Go function values are
// not comparable), but a method value of the same method on two
// different receivers shares one code pointer — which is exactly the
// identity a fork needs: "which continuation is this?", independent
// of "whose state does it touch?". RebindStep matches on that.

// ForkFunc clones a resumable guest mid-flight: given the guest's
// current continuation, it returns the equivalent state of an
// independent copy. Implementations deep-copy the guest's state
// struct and rebind cur onto it (see RebindStep); they run between
// activations, so the guest is quiescent — no request is being
// posted while a ForkFunc runs.
type ForkFunc func(cur Step) (Forked, error)

// Forked is a cloned guest: the clone's continuation (equivalent to
// the one the original was parked on) and its own ForkFunc, so the
// clone can be forked again.
type Forked struct {
	Step Step
	Fork ForkFunc
}

// RebindStep maps a continuation of one guest instance onto the
// equivalent continuation of a clone: old and new list the two
// instances' bound continuations in the same order, and cur is
// matched against old by code pointer. ok is false when cur matches
// none of them (the guest is parked on a continuation the fork
// support does not know about — a bug in the guest's fork wiring).
// Nil entries in old are skipped, so not-yet-bound slots (e.g. an
// un-Begun RetryStep's engine) list safely.
func RebindStep(cur Step, old, new []Step) (Step, bool) {
	cp := stepCode(cur)
	for i, o := range old {
		if o == nil {
			continue
		}
		if stepCode(o) == cp {
			return new[i], true
		}
	}
	return nil, false
}

// stepCode returns a Step's code pointer. Method values of the same
// method share one code pointer across receivers.
func stepCode(s Step) uintptr { return reflect.ValueOf(s).Pointer() }

// ForkInto copies this retry engine's in-flight state into dst (the
// clone's embedded RetryStep), rebinding the attempt and completion
// hooks to the clone's own bound closures, which the caller supplies
// by matching the original's op/done against its known hooks. The
// clone resumes the retry loop — backoff step, deadline, stashed
// last error — exactly where the original stands.
func (s *RetryStep) ForkInto(dst *RetryStep, op RetryOp, done RetryDone) {
	dst.op, dst.done = op, done
	dst.budget = s.budget
	dst.pc = s.pc
	dst.deadline = s.deadline
	dst.step = s.step
	dst.last = s.last
	if s.self != nil {
		dst.self = dst.run
	}
}

// Self returns the engine's bound loop continuation (nil before the
// first Begin). Fork implementations list it in RebindStep's old/new
// tables so a guest parked inside a retry loop rebinds onto the
// clone's loop.
func (s *RetryStep) Self() Step { return s.self }

// Op exposes the engine's bound attempt hook so a ForkFunc can match
// it against the guest's known closures and install the clone's
// equivalent via ForkInto.
func (s *RetryStep) Op() RetryOp { return s.op }

// SameOp reports whether two attempt hooks are the same bound
// closure (code-pointer identity, as RebindStep uses for Steps).
func SameOp(a, b RetryOp) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}
