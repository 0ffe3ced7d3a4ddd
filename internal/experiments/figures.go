package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attacks"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workloads"
)

// Figure is one regenerated evaluation artifact.
type Figure struct {
	ID    string
	Title string
	Unit  string
	Bars  []textplot.Bar
	// Rows/Header fill table-style artifacts instead of Bars.
	Header []string
	Rows   [][]string
	// Notes record calibration decisions and paper expectations.
	Notes []string
}

// Render returns the plain-text artifact.
func (f *Figure) Render() string {
	var sb strings.Builder
	if len(f.Bars) > 0 {
		sb.WriteString(textplot.RenderBars(fmt.Sprintf("%s: %s", f.ID, f.Title), f.Unit, f.Bars, 46))
	} else {
		sb.WriteString(textplot.Table(fmt.Sprintf("%s: %s", f.ID, f.Title), f.Header, f.Rows))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// billBar renders one bill as a bar of user then system seconds.
func billBar(group, label string, user, sys float64) textplot.Bar {
	return textplot.Bar{Group: group, Label: label, Segments: []textplot.Segment{
		{Name: "user", Value: user},
		{Name: "system", Value: sys},
	}}
}

// victimBars renders one workload's normal-vs-attack pair using the
// billed (jiffy) numbers, as the paper's getrusage does.
func victimBars(group string, normal, attacked *RunOut) []textplot.Bar {
	return []textplot.Bar{
		billBar(group, "normal", normal.Victim.User["jiffy"], normal.Victim.Sys["jiffy"]),
		billBar(group, "attack", attacked.Victim.User["jiffy"], attacked.Victim.Sys["jiffy"]),
	}
}

// perProgramFigure plans the normal/attack pair for all four programs,
// rendered as their billed time.
func perProgramFigure(o Options, id, title string, touches func(o Options, key string) uint64, attack attacks.Attack, notes ...string) plan {
	keys := []string{"O", "P", "W", "B"}
	specs := make([]RunSpec, 0, 2*len(keys))
	for _, key := range keys {
		var tc uint64
		if touches != nil {
			tc = touches(o, key)
		}
		specs = append(specs,
			RunSpec{Opts: o, Workload: key, Touches: tc},
			RunSpec{Opts: o, Workload: key, Touches: tc, Attack: attack})
	}
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{ID: id, Title: title, Unit: "CPU seconds (billed by jiffy accounting)", Notes: notes}
		for i, key := range keys {
			fig.Bars = append(fig.Bars, victimBars(key, outs[2*i], outs[2*i+1])...)
		}
		return fig, nil
	})
}

// payloadCycles scales the paper's ~34 s injected loop.
func payloadCycles(o Options) sim.Cycles {
	return sim.Cycles(34 * o.Scale * float64(o.Freq))
}

// schedulingForks scales the fork storm's length, floor 512.
func schedulingForks(o Options) uint64 {
	return max(uint64(float64(attacks.DefaultSchedulingForks)*o.Scale), 512)
}

// thrashTouches scales a program's watchpoint hit count, floor 100.
func thrashTouches(o Options, key string) uint64 {
	spec, _ := workloads.SpecByKey(key) // every caller names a known program
	return max(uint64(float64(spec.DefaultThrashTouches)*o.Scale), 100)
}

// figure4 reproduces the shell attack: every program's user time
// grows by the same ~34 s payload; system time is untouched.
func figure4(o Options) plan {
	return perProgramFigure(o, "Figure 4", "Shell Attack", nil, attacks.ShellAttack{PayloadCycles: payloadCycles(o)},
		fmt.Sprintf("payload: %.1f s injected between fork() and execve(); paper: ~34 s (2^34-iteration loop)", 34*o.Scale),
		"expectation: user time +constant for all four programs, system time unchanged")
}

// figure5 reproduces the shared-library constructor attack; the
// paper notes the result is "almost identical" to Fig. 4.
func figure5(o Options) plan {
	return perProgramFigure(o, "Figure 5", "Shared Library Constructor Attack", nil, attacks.LibraryCtorAttack{PayloadCycles: payloadCycles(o)},
		"LD_PRELOAD-ed constructor runs the same payload before main()",
		"expectation: almost identical to Figure 4 (same code, different location)")
}

// figure6 reproduces the function-substitution attack: fake malloc()
// and sqrt() run attack code per call, so inflation scales with the
// victim's call counts (libm-heavy Whetstone inflates most).
func figure6(o Options) plan {
	return perProgramFigure(o, "Figure 6", "Library Function Substitution Attack", nil, attacks.NewLibrarySubstitutionAttack(o.Freq),
		"fake malloc/sqrt run ~0.5 ms of attack code then call the genuine function",
		"expectation: amplified vs Fig. 5, proportional to per-program call frequency")
}

// schedulingSweep plans the Fig. 7/8 artifact for one victim:
// leftmost pair is victim and Fork run independently; subsequent
// pairs run them concurrently with the attacker at each nice value.
func schedulingSweep(o Options, id, victim string, notes ...string) plan {
	forks := schedulingForks(o)
	niceLevels := []int{0, -5, -10, -15, -20}
	// The two independent runs ("no attack"), then one concurrent
	// victim/attacker run per nice level.
	specs := []RunSpec{
		{Opts: o, Workload: victim},
		{Opts: o, Attack: attacks.NewSchedulingAttack(0, forks)},
	}
	for _, nice := range niceLevels {
		specs = append(specs, RunSpec{Opts: o, Workload: victim, Attack: attacks.NewSchedulingAttack(nice, forks)})
	}
	notes = append([]string{
		fmt.Sprintf("fork storm: %d forks (paper: 2^21; scaled for tractable simulation)", forks),
		"expectation: victim's billed time rises as attacker priority rises; Fork's falls; sum ~constant",
	}, notes...)
	return solo(specs, func(outs []*RunOut) (*Figure, error) {
		fig := &Figure{
			ID:    id,
			Title: fmt.Sprintf("Process Scheduling Attack on %s", victim),
			Unit:  "CPU seconds (billed by jiffy accounting; Fork includes its children)",
			Notes: notes,
		}
		addPair := func(group string, v, f *RunOut) {
			fig.Bars = append(fig.Bars,
				billBar(group, victim, v.Victim.User["jiffy"], v.Victim.Sys["jiffy"]),
				billBar(group, "Fork", f.AttackerUser("jiffy"), f.AttackerSys("jiffy")),
			)
		}
		addPair("no attack", outs[0], outs[1])
		for i, nice := range niceLevels {
			group := "nice"
			if nice != 0 {
				group = fmt.Sprintf("nice%d", nice)
			}
			addPair(group, outs[2+i], outs[2+i])
		}
		return fig, nil
	})
}

// AttackerUser sums attacker user seconds under a scheme.
func (r *RunOut) AttackerUser(scheme string) float64 {
	var t float64
	for _, a := range r.Attackers {
		t += a.User[scheme]
	}
	return t
}

// AttackerSys sums attacker system seconds under a scheme.
func (r *RunOut) AttackerSys(scheme string) float64 {
	var t float64
	for _, a := range r.Attackers {
		t += a.Sys[scheme]
	}
	return t
}

// figure7 reproduces the scheduling attack on Whetstone.
func figure7(o Options) plan {
	return schedulingSweep(o, "Figure 7", "W")
}

// figure8 reproduces the scheduling attack on Brute: the threaded
// victim absorbs no significant inflation.
func figure8(o Options) plan {
	return schedulingSweep(o, "Figure 8", "B",
		"paper: no significant change for B — threads scheduled as processes spread the sampling error across per-task rusage",
		"this reproduction bills the whole thread group as one entity, re-aggregating the spread error; see EXPERIMENTS.md")
}

// figure9 reproduces the execution-thrashing attack: watchpoint
// storms inflate mostly system time, proportional to hit counts
// (paper: O/P ~10^7 scaled to 10^6, W 2x10^5, B ~8.95x10^5).
func figure9(o Options) plan {
	return perProgramFigure(o, "Figure 9", "Execution Thrashing Attack", thrashTouches, attacks.NewThrashingAttack(),
		"watchpoints on each program's hot variable (O: loop counter, P: y, W: T1, B: count)",
		"expectation: system time rises sharply; ordering follows watchpoint hit counts")
}

// figure10 reproduces the interrupt flooding attack: junk packets
// slightly inflate every program's system time.
func figure10(o Options) plan {
	return perProgramFigure(o, "Figure 10", "Interrupt Flooding Attack", nil, attacks.NewInterruptFloodAttack(40_000),
		"40k junk packets/s raise one NIC rx interrupt each; handler time lands on the current task",
		"expectation: slight system-time increase on all four programs")
}

// figure11 reproduces the exception flooding attack: a >2x-RAM
// memory hog forces victim page faults.
func figure11(o Options) plan {
	if o.PhysMemBytes == 0 {
		o.PhysMemBytes = 1 << 30
	}
	return perProgramFigure(o, "Figure 11", "Exception Flooding Attack", nil, attacks.NewExceptionFloodAttack(2*o.PhysMemBytes),
		fmt.Sprintf("hog requests 2x physical memory (%d MiB RAM) and continuously re-dirties it", o.PhysMemBytes>>20),
		"expectation: system time increases via page-fault handling and swap-I/O completions; bounded (paper: weakest attack)")
}
