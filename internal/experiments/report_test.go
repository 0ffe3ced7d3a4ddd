package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metering"
	"repro/internal/proc"
)

// TestReportMatchesMachine checks RunOut.Report, which reads only the
// harvest, against a report read from the finished machine itself,
// for every workload under no attack and under each attack, billed
// under the legacy and under the trusted scheme.
func TestReportMatchesMachine(t *testing.T) {
	specs := runTable(quick().norm())
	diffs := make([][]string, len(specs))
	RunIndexed(len(specs), 0, func(i int) { diffs[i] = reportDiffs(specs[i]) })
	for i, d := range diffs {
		for _, msg := range d {
			t.Errorf("%s/%s: %s", specs[i].Workload, key(specs[i].Attack), msg)
		}
	}
}

// reportDiffs runs spec the way Run does, but keeps the machine, and
// lists every report field in which RunOut.Report differs from a
// report built from the machine's own evidence.
func reportDiffs(spec RunSpec) []string {
	m := kernel.New(spec.Opts.norm().machineConfig())
	l, err := launchSpec(m, spec)
	if err != nil {
		return []string{err.Error()}
	}
	if err := m.Run(); err != nil {
		return []string{err.Error()}
	}
	m.NIC().StopFlood()
	out := l.harvest(m)
	var diffs []string
	for _, scheme := range []string{core.LegacyBillingScheme, core.TrustedBillingScheme} {
		got, err := out.Report(spec.Workload, scheme, aikSeed, auditNonce)
		if err != nil {
			return append(diffs, err.Error())
		}
		want, err := core.BuildReport(machineEvidence(m, out.VictimPID, spec.Workload), scheme, aikSeed, auditNonce)
		if err != nil {
			return append(diffs, err.Error())
		}
		g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				diffs = append(diffs, fmt.Sprintf("%s report's %s: harvest %+v, machine %+v",
					scheme, g.Type().Field(f).Name, g.Field(f), w.Field(f)))
			}
		}
	}
	return diffs
}

// machineEvidence reads one job's evidence from a finished machine:
// each accountant's usage of the job, in the machine's order, its
// counters, the measurement log, the clock and the system account.
func machineEvidence(m *kernel.Machine, job proc.PID, jobName string) core.Report {
	freq := m.Clock().Freq()
	ev := core.Report{
		JobName:      jobName,
		JobPID:       job,
		FreqHz:       freq,
		Counters:     m.Stats(job),
		Measurements: m.Measurements(),
		ElapsedSec:   m.Clock().Seconds(m.Clock().Now()),
	}
	for _, acct := range m.Accountants().Accountants() {
		u, _ := m.UsageBy(acct.Name(), job)
		us, ss := u.Seconds(freq)
		ev.Schemes = append(ev.Schemes, core.SchemeUsage{Scheme: acct.Name(), UserSec: us, SysSec: ss})
	}
	sys, _ := m.UsageBy(core.TrustedBillingScheme, metering.SystemPID)
	_, ev.SystemAccountSec = sys.Seconds(freq)
	return ev
}
