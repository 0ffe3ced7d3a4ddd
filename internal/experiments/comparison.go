package experiments

import (
	"fmt"

	"repro/internal/attacks"
)

// sideEffects records Section V-C's qualitative side-effect notes.
var sideEffects = map[string]string{
	"shell":    "inflates every program started from the attacked shell",
	"ctor":     "inflates every program run with the preloaded library",
	"subst":    "inflates every program calling the substituted functions",
	"sched":    "needs root to raise priority; effect depends on runtime factors",
	"thrash":   "least side effect (targets exactly PT); needs ptrace privilege",
	"irqflood": "denial-of-service on the whole system",
	"excflood": "denial-of-service on the whole system",
}

// vulnerability records Section V-C's exploited-vulnerability notes.
var vulnerability = map[string]string{
	"shell":    "alien code billed in process context (launch)",
	"ctor":     "alien code billed in process context (library load)",
	"subst":    "alien code billed in process context (every call)",
	"sched":    "coarse tick sampling misattributes partial jiffies",
	"thrash":   "kernel service for unsolicited traps billed to PT",
	"irqflood": "IRQ handler time billed to the interrupted process",
	"excflood": "fault handling billed to the faulting victim",
}

// attackRuns lists the seven attacks against Whetstone, in the
// paper's order, at the strengths of the comparison and mitigation
// tables; the thrashing run carries its scaled touch count.
func attackRuns(o Options) []RunSpec {
	specs := []RunSpec{
		{Attack: attacks.ShellAttack{PayloadCycles: payloadCycles(o)}},
		{Attack: attacks.LibraryCtorAttack{PayloadCycles: payloadCycles(o)}},
		{Attack: attacks.NewLibrarySubstitutionAttack(o.Freq)},
		{Attack: attacks.NewSchedulingAttack(-20, schedulingForks(o))},
		{Attack: attacks.NewThrashingAttack(), Touches: thrashTouches(o, "W")},
		{Attack: attacks.NewInterruptFloodAttack(0)},
		{Attack: attacks.NewExceptionFloodAttack(2 * physMem(o))},
	}
	for i := range specs {
		specs[i].Opts, specs[i].Workload = o, "W"
	}
	return specs
}

// comparison reproduces Section V-C: every attack run against
// Whetstone once, reporting measured billed inflation next to the
// paper's qualitative assessment.
func comparison(o Options) plan {
	// The shared baseline, then per attack an optional touch-matched
	// baseline plus the attacked run.
	attacked := attackRuns(o)
	specs := []RunSpec{{Opts: o, Workload: "W"}}
	refs := make([]int, len(attacked))
	rows := make([]int, len(attacked))
	for i, s := range attacked {
		if s.Touches != 0 {
			// The thrashing row needs a baseline with matching
			// touch counts.
			refs[i] = len(specs)
			specs = append(specs, RunSpec{Opts: o, Workload: "W", Touches: s.Touches})
		}
		rows[i] = len(specs)
		specs = append(specs, s)
	}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:     "Table V-C",
			Title:  "Attack comparison on Whetstone (billed by jiffy accounting)",
			Header: []string{"attack", "phase", "inflates", "billed s", "baseline s", "inflation", "vulnerability exploited", "side effects"},
		}
		for i, s := range attacked {
			ref := outs[refs[i]].Victim.Total("jiffy")
			billed := outs[rows[i]].Victim.Total("jiffy")
			infl := 0.0
			if ref > 0 {
				infl = (billed - ref) / ref * 100
			}
			a := s.Attack
			fig.Rows = append(fig.Rows, []string{
				a.Name(),
				a.Phase(),
				a.Targets(),
				fmt.Sprintf("%.1f", billed),
				fmt.Sprintf("%.1f", ref),
				fmt.Sprintf("%+.1f%%", infl),
				vulnerability[a.Key()],
				sideEffects[a.Key()],
			})
		}
		fig.Notes = append(fig.Notes,
			"strength per paper: shell/library unbounded; thrashing tunable via hit count; scheduling depends on runtime factors; flooding weakest")
		return fig, nil
	})
}
