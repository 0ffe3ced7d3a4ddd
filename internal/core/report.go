// Package core is the paper's constructive contribution made
// concrete: a trustworthy CPU-usage metering scheme with the three
// properties of Section VI-B.
//
//   - Source integrity: every code object executed in the billed
//     process's context is measured into a TPM-sealed log
//     (internal/integrity); the customer verifies the log against a
//     manifest taken from a reference run on her own platform.
//   - Execution integrity: the report carries the kernel's
//     interference counters (trace stops, debug exceptions, forced
//     signal deliveries); a job that was stopped half a million times
//     by a tracer did not execute undisturbed, whatever the bill says.
//   - Fine-grained metering: the bill is computed from the TSC-exact,
//     process-aware accountant rather than tick sampling, and the
//     report exposes all three schemes so divergence itself is
//     evidence.
//
// The Auditor is the customer side: it verifies the quote, replays
// the measurement log, checks the manifest, applies anomaly detectors
// for each attack family, and compares the bill against a reference
// profile, producing a Verdict with per-property findings.
package core

import (
	"fmt"

	"repro/internal/integrity"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/sim"
)

// SchemeUsage is one accounting scheme's view of the job, in seconds.
type SchemeUsage struct {
	Scheme  string
	UserSec float64
	SysSec  float64
}

// Total returns user+system seconds.
func (s SchemeUsage) Total() float64 { return s.UserSec + s.SysSec }

// Report is what the provider hands the customer with the bill: the
// billed figure plus the attested evidence needed to verify it.
type Report struct {
	JobName string
	JobPID  proc.PID
	// FreqHz is the platform's advertised clock.
	FreqHz sim.Hz
	// Billed is the amount charged, computed by BillingScheme.
	Billed        SchemeUsage
	BillingScheme string
	// Schemes is every accountant's view of the same run.
	Schemes []SchemeUsage
	// SystemAccountSec is interrupt time the process-aware scheme
	// diverted away from jobs.
	SystemAccountSec float64
	// Counters are the kernel's per-job interference statistics.
	Counters kernel.Stats
	// Measurements is the code-identity log for the whole machine;
	// entries with TGID == JobPID are the job's own.
	Measurements []kernel.Measurement
	// Quote seals the measurement log under the platform TPM's AIK.
	Quote integrity.Quote
	// ElapsedSec is wall time from boot to report.
	ElapsedSec float64
}

// TrustedBillingScheme is the scheme a trustworthy meter bills from.
const TrustedBillingScheme = "process-aware"

// LegacyBillingScheme is the commodity tick-sampled scheme.
const LegacyBillingScheme = "jiffy"

// BuildReport completes an attested usage report from one job's
// evidence: ev with Billed, BillingScheme and Quote unset. scheme
// selects the billing figure from ev.Schemes ("jiffy" for a commodity
// provider, TrustedBillingScheme for the paper's proposal), and the
// quote seals ev's measurement log.
func BuildReport(ev Report, scheme, aikSeed, nonce string) (*Report, error) {
	billed, ok := ev.Scheme(scheme)
	if !ok {
		return nil, fmt.Errorf("core: billing scheme %q not among the job's schemes", scheme)
	}
	ev.Billed, ev.BillingScheme = billed, scheme
	ev.Quote = integrity.BuildLog(ev.Measurements, aikSeed).Quote(nonce)
	return &ev, nil
}

// Scheme returns a named scheme's usage from the report.
func (r *Report) Scheme(name string) (SchemeUsage, bool) {
	for _, s := range r.Schemes {
		if s.Scheme == name {
			return s, true
		}
	}
	return SchemeUsage{}, false
}
