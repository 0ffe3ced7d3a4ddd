package core

import (
	"fmt"
	"math"

	"repro/internal/integrity"
)

// Property is one of the paper's three requirements for trustworthy
// metering (Section VI-B).
type Property int

const (
	// SourceIntegrity: only expected code ran in the job's context.
	SourceIntegrity Property = iota + 1
	// ExecutionIntegrity: the job's execution was not interfered
	// with (stopped, single-stepped, control-flow manipulated).
	ExecutionIntegrity
	// FineGrainedMetering: the billed time attributes exactly the
	// cycles the job consumed, at TSC granularity, excluding
	// unrelated interrupt service.
	FineGrainedMetering
)

func (p Property) String() string {
	switch p {
	case SourceIntegrity:
		return "source-integrity"
	case ExecutionIntegrity:
		return "execution-integrity"
	case FineGrainedMetering:
		return "fine-grained-metering"
	default:
		return "unknown"
	}
}

// Finding is one audit observation.
type Finding struct {
	Property Property
	// Violation marks a trust failure; informational findings have
	// it false.
	Violation bool
	Detail    string
}

func (f Finding) String() string {
	tag := "info"
	if f.Violation {
		tag = "VIOLATION"
	}
	return fmt.Sprintf("[%s/%s] %s", f.Property, tag, f.Detail)
}

// Verdict is the audit outcome.
type Verdict struct {
	Trustworthy bool
	// OverchargeSec estimates how much the billed figure exceeds the
	// defensible figure (ground-truth attribution).
	OverchargeSec float64
	Findings      []Finding
}

// Violations returns only the failed findings.
func (v Verdict) Violations() []Finding {
	var out []Finding
	for _, f := range v.Findings {
		if f.Violation {
			out = append(out, f)
		}
	}
	return out
}

// Profile is the customer's reference expectation: the job's usage
// measured on her own platform with the same specification (the
// paper's trust definition, Section III-B).
type Profile struct {
	UserSec float64
	SysSec  float64
}

// The auditor's thresholds.
const (
	// profileTolerancePct allows a bill to differ from the reference
	// profile by run-to-run variation.
	profileTolerancePct = 5
	// schemeDivergencePct flags fine-grained divergence between the
	// billed figure and the ground-truth scheme.
	schemeDivergencePct = 3
	// minOverchargeSec is the absolute floor under which divergence
	// is treated as sampling noise rather than an attack (~60
	// jiffies).
	minOverchargeSec = 0.25
)

// Auditor verifies provider reports on the customer's behalf.
type Auditor struct {
	// Manifest allows the digests of every code object expected in
	// the job's context (typically harvested from a clean reference
	// run).
	Manifest *integrity.Manifest
	// Reference is the job's expected usage, if the customer has
	// profiled it.
	Reference *Profile
	// AIKSeed is the platform TPM's attestation key material the
	// customer trusts (certificate chain stand-in).
	AIKSeed string
	// Nonce must match the challenge the customer sent.
	Nonce string
}

// Audit checks one report and returns the verdict.
func (a *Auditor) Audit(r *Report) Verdict {
	var v Verdict

	// --- Attestation plumbing: quote and log replay. ---
	if !integrity.VerifyQuote(a.AIKSeed, r.Quote) {
		v.Findings = append(v.Findings, Finding{SourceIntegrity, true,
			"TPM quote signature invalid"})
	} else if r.Quote.Nonce != a.Nonce {
		v.Findings = append(v.Findings, Finding{SourceIntegrity, true,
			fmt.Sprintf("quote nonce %q does not match challenge %q (replayed report?)", r.Quote.Nonce, a.Nonce)})
	} else if !integrity.Replay(r.Measurements, r.Quote) {
		v.Findings = append(v.Findings, Finding{SourceIntegrity, true,
			"measurement log does not replay to the quoted PCR (log tampered)"})
	}

	// --- Source integrity: every measured object must be expected. ---
	if a.Manifest != nil {
		if vs := a.Manifest.Check(r.Measurements, r.JobPID); len(vs) > 0 {
			v.Findings = append(v.Findings, Finding{SourceIntegrity, true,
				integrity.Describe(vs)})
		} else {
			v.Findings = append(v.Findings, Finding{SourceIntegrity, false,
				"all code objects in job context match the manifest"})
		}
	}

	// --- Execution integrity: interference counters. ---
	// A single trace stop fails it.
	if r.Counters.TraceStops > 0 {
		v.Findings = append(v.Findings, Finding{ExecutionIntegrity, true,
			fmt.Sprintf("job was trace-stopped %d times (debug exceptions: %d): execution thrashing",
				r.Counters.TraceStops, r.Counters.DebugExceptions)})
	} else {
		v.Findings = append(v.Findings, Finding{ExecutionIntegrity, false,
			"no trace interference recorded"})
	}

	// --- Fine-grained metering: cross-scheme divergence. ---
	billed := r.Billed.Total()
	truth := billed
	if pa, ok := r.Scheme(TrustedBillingScheme); ok {
		truth = pa.Total()
		if diffPct(billed, truth) > schemeDivergencePct && billed-truth > minOverchargeSec {
			v.OverchargeSec = billed - truth
			v.Findings = append(v.Findings, Finding{FineGrainedMetering, true,
				fmt.Sprintf("billed %.2fs but exact attribution is %.2fs (+%.1f%%): tick sampling or interrupt misattribution exploited",
					billed, truth, diffPct(billed, truth))})
		}
		if ts, ok := r.Scheme("tsc"); ok && diffPct(ts.SysSec, pa.SysSec) > schemeDivergencePct && ts.SysSec-pa.SysSec > minOverchargeSec {
			v.Findings = append(v.Findings, Finding{FineGrainedMetering, true,
				fmt.Sprintf("%.2fs of interrupt-handler time was attributed to the job (process-aware: %.2fs): interrupt flooding",
					ts.SysSec, pa.SysSec)})
		}
	}

	// --- Reference profile comparison (the trust definition). ---
	if a.Reference != nil {
		wantTotal := a.Reference.UserSec + a.Reference.SysSec
		if wantTotal > 0 && diffPct(billed, wantTotal) > profileTolerancePct &&
			math.Abs(billed-wantTotal) > minOverchargeSec {
			if v.OverchargeSec == 0 {
				v.OverchargeSec = billed - wantTotal
			}
			v.Findings = append(v.Findings, Finding{FineGrainedMetering, true,
				fmt.Sprintf("billed %.2fs vs reference-platform %.2fs (%+.1f%%)",
					billed, wantTotal, (billed-wantTotal)/wantTotal*100)})
		}
		// A user-time jump with matching reference system time is
		// the launch-attack signature; a system-time jump is the
		// kernel-service signature.
		if a.Reference.SysSec >= 0 && r.Billed.SysSec > a.Reference.SysSec*2 && r.Billed.SysSec-a.Reference.SysSec > 0.1 {
			v.Findings = append(v.Findings, Finding{ExecutionIntegrity, true,
				fmt.Sprintf("system time %.2fs vs reference %.2fs: unsolicited kernel service billed to the job",
					r.Billed.SysSec, a.Reference.SysSec)})
		}
	}

	v.Trustworthy = len(v.Violations()) == 0
	return v
}

// diffPct is the relative difference of a over b in percent,
// saturating when b is ~0.
func diffPct(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / b * 100
}
