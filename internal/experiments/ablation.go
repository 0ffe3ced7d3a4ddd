package experiments

import (
	"fmt"

	"repro/internal/attacks"
)

// ablationTickRate measures how the timer frequency changes the
// scheduling attack's yield: finer ticks shrink — but do not
// eliminate — the per-jiffy sampling error the attack converts into
// stolen charge. This quantifies the paper's remark that tick
// granularity, not any particular HZ, is the root defect.
func ablationTickRate(o Options) plan {
	rates := []uint64{100, 250, 1000}
	specs := make([]RunSpec, len(rates))
	for i, hz := range rates {
		oo := o
		oo.HZ = hz
		specs[i] = RunSpec{Opts: oo, Workload: "W", Attack: attacks.NewSchedulingAttack(-20, schedulingForks(o))}
	}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:     "Ablation A1",
			Title:  "Scheduling-attack inflation vs timer frequency (victim: W, attacker nice -20)",
			Header: []string{"HZ", "tick ms", "billed s", "truth s", "inflation"},
		}
		for i, hz := range rates {
			billed := outs[i].Victim.Total("jiffy")
			truth := outs[i].Victim.Total("tsc")
			fig.Rows = append(fig.Rows, []string{
				fmt.Sprintf("%d", hz),
				fmt.Sprintf("%.0f", 1000.0/float64(hz)),
				fmt.Sprintf("%.2f", billed),
				fmt.Sprintf("%.2f", truth),
				fmt.Sprintf("%+.1f%%", pctOver(billed, truth)),
			})
		}
		fig.Notes = append(fig.Notes,
			"raising HZ does not close the channel: preemption opportunities scale with the tick rate, so a phase-locked attacker adapts and steals at least as much",
			"only exact (TSC) attribution eliminates the inflation")
		return fig, nil
	})
}

// ablationScheduler compares the O(1)-style and CFS-like policies
// under the scheduling attack, for the paper's remark that CFS
// changes the time composition but remains tick-sampled.
func ablationScheduler(o Options) plan {
	policies := []string{"o1", "cfs"}
	specs := make([]RunSpec, len(policies))
	for i, policy := range policies {
		oo := o
		oo.SchedulerPolicy = policy
		specs[i] = RunSpec{Opts: oo, Workload: "W", Attack: attacks.NewSchedulingAttack(-20, schedulingForks(o))}
	}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:     "Ablation A2",
			Title:  "Scheduling-attack inflation vs scheduler policy (victim: W, attacker nice -20)",
			Header: []string{"policy", "billed s", "truth s", "inflation"},
		}
		for i, policy := range policies {
			billed := outs[i].Victim.Total("jiffy")
			truth := outs[i].Victim.Total("tsc")
			fig.Rows = append(fig.Rows, []string{
				policy,
				fmt.Sprintf("%.2f", billed),
				fmt.Sprintf("%.2f", truth),
				fmt.Sprintf("%+.1f%%", pctOver(billed, truth)),
			})
		}
		fig.Notes = append(fig.Notes,
			"both policies are vulnerable: the flaw is tick sampling, not the pick-next rule")
		return fig, nil
	})
}

// ablationIRQAccounting isolates the interrupt-attribution defect:
// under a packet flood, the naive TSC scheme still bills handler
// time to the victim while the process-aware scheme diverts it.
func ablationIRQAccounting(o Options) plan {
	specs := []RunSpec{{Opts: o, Workload: "O", Attack: attacks.NewInterruptFloodAttack(0)}}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:     "Ablation A3",
			Title:  "Interrupt-handler attribution under a 40k pps flood (victim: O)",
			Header: []string{"scheme", "victim system s", "system-account s"},
		}
		out := outs[0]
		for _, scheme := range Schemes {
			fig.Rows = append(fig.Rows, []string{
				scheme,
				fmt.Sprintf("%.3f", out.Victim.Sys[scheme]),
				map[string]string{"process-aware": fmt.Sprintf("%.3f", out.SystemAccountSec)}[scheme],
			})
		}
		fig.Notes = append(fig.Notes,
			"jiffy and tsc bill the victim for the flood's handler time; process-aware bills the system account")
		return fig, nil
	})
}

// ablationDetector sweeps the auditor's divergence threshold against
// the scheduling attack at several strengths, mapping the detection
// frontier: how much theft slips under each threshold.
func ablationDetector(o Options) plan {
	strengths := []int{0, -5, -20}
	specs := make([]RunSpec, len(strengths))
	for i, nice := range strengths {
		specs[i] = RunSpec{Opts: o, Workload: "W", Attack: attacks.NewSchedulingAttack(nice, schedulingForks(o))}
	}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:     "Ablation A4",
			Title:  "Divergence-detector frontier (victim: W, scheduling attack)",
			Header: []string{"attacker nice", "inflation", "detected @1%", "@3%", "@10%"},
		}
		for i, nice := range strengths {
			out := outs[i]
			billed := out.Victim.Total("jiffy")
			truth := out.Victim.Total("process-aware")
			infl := pctOver(billed, truth)
			row := []string{fmt.Sprintf("%d", nice), fmt.Sprintf("%+.1f%%", infl)}
			for _, thr := range []float64{1, 3, 10} {
				detected := infl > thr && billed-truth > 0.25
				row = append(row, fmt.Sprintf("%v", detected))
			}
			fig.Rows = append(fig.Rows, row)
		}
		fig.Notes = append(fig.Notes,
			"detection requires both relative divergence above threshold and absolute overcharge above the noise floor (0.25 s)")
		return fig, nil
	})
}
