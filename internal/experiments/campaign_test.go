package experiments

import (
	"strings"
	"testing"
)

// render runs plan p's distinct runs on a pool of parallelism workers
// and renders its figure.
func render(p plan, parallelism int) (*Figure, error) {
	c := newCampaign([]plan{p})
	RunIndexed(c.Runs(), parallelism, func(i int) { c.Run(i) })
	return c.Render(0)
}

// reproduce regenerates artifact id on a pool of o.Parallelism
// workers.
func reproduce(id string, o Options) (*Figure, error) {
	o = o.norm()
	return render(artifacts[id](o), o.Parallelism)
}

// TestRunAllMatchesSequentialRun asserts that a plan run on the
// worker pool renders the same results, in declaration order, as
// calling Run spec by spec.
func TestRunAllMatchesSequentialRun(t *testing.T) {
	o := quick()
	specs := []RunSpec{
		{Opts: o, Workload: "O"},
		{Opts: o, Workload: "P"},
		{Opts: o, Workload: "W"},
	}
	var got []*RunOut
	if _, err := render(solo(specs, func(outs []*RunOut) (*Figure, error) {
		got = outs
		return &Figure{}, nil
	}), 3); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		want, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Spec.Workload != s.Workload {
			t.Errorf("result %d is for %q, want %q (declaration order)", i, got[i].Spec.Workload, s.Workload)
		}
		for _, scheme := range Schemes {
			if g, w := got[i].Victim.Total(scheme), want.Victim.Total(scheme); g != w {
				t.Errorf("%s/%s: pooled %v != sequential %v", s.Workload, scheme, g, w)
			}
		}
	}
}

// TestRunAllReportsEarliestError asserts the campaign's deterministic
// error contract: with several failing runs, the earliest-declared
// one is reported with its index and spec, regardless of completion
// order.
func TestRunAllReportsEarliestError(t *testing.T) {
	o := quick()
	_, err := render(solo([]RunSpec{
		{Opts: o, Workload: "O"},
		{Opts: o, Workload: "bogus-1"},
		{Opts: o, Workload: "bogus-2"},
	}, func([]*RunOut) (*Figure, error) { return &Figure{}, nil }), 3)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "run 1 (bogus-1/baseline)") {
		t.Fatalf("error %q does not name the earliest failing spec", err)
	}
}

// TestEqualRunsRunOnce asserts that two plans declaring an equal
// RunSpec share one run, which the first of them owns, and both
// render from its result.
func TestEqualRunsRunOnce(t *testing.T) {
	spec := RunSpec{Opts: quick().norm(), Workload: "O"}
	var got []*RunOut
	read := func(outs []*RunOut) (*Figure, error) {
		got = append(got, outs...)
		return &Figure{}, nil
	}
	c := newCampaign([]plan{solo([]RunSpec{spec}, read), solo([]RunSpec{spec}, read)})
	if c.Runs() != 1 {
		t.Fatalf("two equal runs became %d", c.Runs())
	}
	if owner := c.Run(0); owner != 0 {
		t.Errorf("the shared run's time goes to plan %d, want the first declarer", owner)
	}
	_, err0 := c.Render(0)
	_, err1 := c.Render(1)
	if err0 != nil || err1 != nil || len(got) != 2 || got[0] == nil || got[0] != got[1] {
		t.Fatalf("plans read %v (errors %v, %v), want one shared result", got, err0, err1)
	}
}

// TestCampaignRunCounts pins how many runs the artifacts declare and
// how many distinct runs remain at seed 2010, Scale 0.005: the
// single-machine artifacts declare their victim/attack pairs many
// times over, while cluster runs are never shared.
func TestCampaignRunCounts(t *testing.T) {
	o := Options{Seed: 2010, Scale: 0.005}
	var single []string
	for _, id := range Artifacts() {
		if _, ok := artifacts[id](o.norm()).runs[0].spec.(RunSpec); ok {
			single = append(single, id)
		}
	}
	for _, tc := range []struct {
		ids                []string
		declared, distinct int
	}{{single, 89, 52}, {Artifacts(), 112, 75}, {[]string{"mitigation"}, 9, 8}} {
		c, err := NewCampaign(tc.ids, o)
		if err != nil {
			t.Fatal(err)
		}
		declared := 0
		for _, p := range c.plans {
			declared += len(p.runs)
		}
		if declared != tc.declared || c.Runs() != tc.distinct {
			t.Errorf("%v: %d declared, %d distinct runs; want %d, %d", tc.ids, declared, c.Runs(), tc.declared, tc.distinct)
		}
	}
}
