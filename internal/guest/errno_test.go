package guest

import (
	"errors"
	"fmt"
	"testing"
)

var transientSink bool

// TestRetryPathsShareOneRule pins the one retry rule of retryBackoff
// and RetryStep: only a bare Errno that clears itself is retried, and
// every other error ends both paths after one attempt, before either
// reads the clock (a nil Context would panic if one did). Classifying
// an error allocates nothing.
func TestRetryPathsShareOneRule(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{EAGAIN, true},
		{ENOMEM, true},
		{EIO, false},
		{errors.New("not an errno"), false},
		{fmt.Errorf("wrapped: %w", EAGAIN), false},
	} {
		if got := transient(tc.err); got != tc.want {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
		if tc.want {
			continue
		}
		attempts := 0
		if err := retryBackoff(nil, 1<<16, func() error { attempts++; return tc.err }); err != tc.err || attempts != 1 {
			t.Errorf("retryBackoff on %v: %v after %d attempts, want the error after 1", tc.err, err, attempts)
		}
		var s RetryStep
		s.Arm(1 << 16)
		r := Resume{Err: tc.err}
		if got := s.Next(nil, &r); got != RetryFinal || r.Err != tc.err {
			t.Errorf("RetryStep on %v: Next = %v with %v, want RetryFinal with the error", tc.err, got, r.Err)
		}
	}
	var err error = EAGAIN
	if n := testing.AllocsPerRun(100, func() { transientSink = transient(err) }); n != 0 {
		t.Fatalf("classifying an error allocated %v times, want 0", n)
	}
}
