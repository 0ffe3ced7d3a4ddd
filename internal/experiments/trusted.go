package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/integrity"
)

// auditNonce is the challenge the simulated customer sends with each
// billing query.
const auditNonce = "audit-nonce-1"

// aikSeed is the platform TPM key material (the customer trusts it
// via a certificate chain in a real deployment).
const aikSeed = "platform-aik"

// mitigation is the extension experiment for Section VI-B: it
// replays every attack against Whetstone and shows that (a) billing
// from the process-aware TSC scheme removes the inflation the jiffy
// scheme suffered, and (b) the customer-side auditor detects every
// attack from the attested evidence.
func mitigation(o Options) plan {
	// The customer's reference run (she profiles the job on her own
	// platform, same spec), then one row per case: no attack, then
	// each attack.
	baseline := RunSpec{Opts: o, Workload: "W"}
	specs := append([]RunSpec{baseline, baseline}, attackRuns(o)...)
	labels := []string{"none (baseline)", "shell", "library ctor", "substitution", "scheduling", "thrashing", "interrupt flood", "exception flood"}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:    "Mitigation",
			Title: "Trusted metering vs all attacks (victim: Whetstone)",
			Header: []string{
				"attack", "billed(jiffy) s", "billed(trusted) s", "truth s",
				"jiffy infl.", "trusted infl.", "audit verdict", "violated property",
			},
		}
		// Harvest the manifest and usage profile from the reference run.
		ref := outs[0]
		refReport, err := ref.Report("whetstone", core.LegacyBillingScheme, aikSeed, auditNonce)
		if err != nil {
			return nil, err
		}
		pairs := map[string]string{}
		for _, e := range refReport.Measurements {
			pairs[e.Name] = e.Digest
		}
		manifest := integrity.NewManifest(pairs)
		tsRef, _ := refReport.Scheme("tsc")
		profile := &core.Profile{UserSec: tsRef.UserSec, SysSec: tsRef.SysSec}

		truthBase := tsRef.Total()
		for i, label := range labels {
			out := outs[1+i]
			// The provider reports under the legacy scheme; the trusted
			// meter bills from the process-aware scheme of the same run.
			rep, err := out.Report("whetstone", core.LegacyBillingScheme, aikSeed, auditNonce)
			if err != nil {
				return nil, err
			}
			aud := &core.Auditor{
				Manifest:  manifest,
				Reference: profile,
				AIKSeed:   aikSeed,
				Nonce:     auditNonce,
			}
			verdict := aud.Audit(rep)

			jiffy := out.Victim.Total("jiffy")
			trusted := out.Victim.Total("process-aware")
			truth := out.Victim.Total("tsc")
			verdictStr := "TRUSTED"
			prop := "-"
			if !verdict.Trustworthy {
				verdictStr = "REJECTED"
				seen := map[string]bool{}
				prop = ""
				for _, f := range verdict.Violations() {
					name := f.Property.String()
					if !seen[name] {
						seen[name] = true
						if prop != "" {
							prop += "+"
						}
						prop += name
					}
				}
			}
			fig.Rows = append(fig.Rows, []string{
				label,
				fmt.Sprintf("%.1f", jiffy),
				fmt.Sprintf("%.1f", trusted),
				fmt.Sprintf("%.1f", truth),
				fmt.Sprintf("%+.1f%%", pctOver(jiffy, truthBase)),
				fmt.Sprintf("%+.1f%%", pctOver(trusted, truthBase)),
				verdictStr,
				prop,
			})
		}
		fig.Notes = append(fig.Notes,
			"trusted billing = process-aware TSC attribution of the same run",
			"inflation measured against the reference run's TSC truth",
			"launch attacks still consume real cycles in the job's context; the auditor rejects them via source integrity rather than the meter hiding them",
			"thrashing consumes real victim-context kernel time; detection is via execution-integrity counters")
		return fig, nil
	})
}

// pctOver is the percentage by which a exceeds base.
func pctOver(a, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (a - base) / base * 100
}
