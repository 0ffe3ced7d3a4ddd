package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestForkedCampaignMatchesFreshBuilds pins the shared-warmup
// guarantee: a campaign that warms one machine and forks its image
// into every variant is byte-identical to building, warming, and
// perturbing each variant's machine from scratch — the checkpoint
// changes where the warmup cycles are paid, never what the variants
// compute.
func TestForkedCampaignMatchesFreshBuilds(t *testing.T) {
	spec := ForkLabSpec{Seed: 77}
	rates := []uint64{10_000, 20_000, 40_000, 80_000, 160_000}

	// Parallelism 3 over 5 variants forces every worker pool to
	// recycle at least one machine shell through Put/Get.
	got, err := RunForkLabCampaign(spec, DefaultForkLabWarmup, rates, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rates) {
		t.Fatalf("campaign returned %d results, want %d", len(got), len(rates))
	}

	for i, pps := range rates {
		m, err := BuildForkLab(spec)
		if err != nil {
			t.Fatal(err)
		}
		done, err := m.RunUntil(DefaultForkLabWarmup)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("fork lab finished before the default warmup barrier; the campaign would have nothing to fork")
		}
		m.NIC().StartFlood(pps)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		want := HarvestForkLab(m)
		m.Shutdown()
		if got[i].Digest != want.Digest {
			t.Fatalf("variant %d (%d pps) diverged from its fresh-built twin:\n--- fresh\n%s--- forked\n%s",
				i, pps, want.Digest, got[i].Digest)
		}
	}

	// And the pool layout must not matter: a serial campaign renders
	// the same bytes as the parallel one.
	serial, err := RunForkLabCampaign(spec, DefaultForkLabWarmup, rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if serial[i].Digest != got[i].Digest {
			t.Fatalf("variant %d differs between serial and parallel campaigns", i)
		}
	}
}

// TestForkedCampaignWarmupPastEnd pins the refusal: a barrier the
// machine finishes before is a configuration error, not a silent
// fork of a dead machine.
func TestForkedCampaignWarmupPastEnd(t *testing.T) {
	_, err := RunForkLabCampaign(ForkLabSpec{Seed: 5}, 1<<40, []uint64{40_000}, 1)
	if err == nil || !strings.Contains(err.Error(), "warmup finished before") {
		t.Fatalf("campaign with a past-end warmup = %v, want a warmup-finished error", err)
	}
}

// TestForkLabClockIdentity checks the clock identity on the fork lab,
// whose dispatches almost always find nothing runnable: user, kernel,
// interrupt and idle cycles sum to the clock after Run, after every
// RunUntil slice, and on a machine restored from a mid-run image, and
// the sliced and restored runs end with the plain run's four totals.
func TestForkLabClockIdentity(t *testing.T) {
	totals := func(t *testing.T, where string, m *kernel.Machine) [4]sim.Cycles {
		t.Helper()
		u, k, i, idle := m.CPU().Utilization()
		if sum := u + k + i + idle; sum != m.Clock().Now() {
			t.Fatalf("%s: user %d + kernel %d + interrupt %d + idle %d = %d, clock %d",
				where, u, k, i, idle, sum, m.Clock().Now())
		}
		return [4]sim.Cycles{u, k, i, idle}
	}
	build := func() *kernel.Machine {
		m, err := BuildForkLab(ForkLabSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := build()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := totals(t, "run", m)
	if idle := want[3]; idle <= m.Clock().Now()/2 {
		t.Fatalf("idle %d of %d cycles: the fork lab should idle most of its run", idle, m.Clock().Now())
	}

	sliced := build()
	var got [4]sim.Cycles
	for barrier := sim.Cycles(1_000_000); ; barrier += 1_000_000 {
		done, err := sliced.RunUntil(barrier)
		if err != nil {
			t.Fatal(err)
		}
		got = totals(t, fmt.Sprintf("slice ending %d", barrier), sliced)
		if done {
			break
		}
	}
	if got != want {
		t.Fatalf("sliced run ended with user/kernel/interrupt/idle %v, the plain run %v", got, want)
	}

	warm := build()
	if done, err := warm.RunUntil(DefaultForkLabWarmup); err != nil || done {
		t.Fatalf("warmup: done=%v err=%v", done, err)
	}
	img, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := kernel.Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	totals(t, "restore", r)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := totals(t, "restored run", r); got != want {
		t.Fatalf("restored run ended with user/kernel/interrupt/idle %v, the plain run %v", got, want)
	}
}

// FuzzSnapshotBarrier checkpoints the fork lab at a random barrier,
// given as a fraction of an uninterrupted run's end. The snapshotted
// original, one Restore and two Pool.Get restores of its image must
// all finish byte-identical to the uninterrupted run.
func FuzzSnapshotBarrier(f *testing.F) {
	f.Add(int64(2010), uint8(59), uint16(32768))
	f.Add(int64(77), uint8(4), uint16(1))
	f.Add(int64(-9), uint8(0), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8, frac uint16) {
		spec := ForkLabSpec{Seed: seed, Rounds: 1 + int(rounds)%60}
		finish := func(m *kernel.Machine) string {
			t.Helper()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			return HarvestForkLab(m).Digest
		}
		ref, err := BuildForkLab(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := finish(ref)
		barrier := ref.Clock().Now() * sim.Cycles(frac) / (1 << 16)

		m, err := BuildForkLab(spec)
		if err != nil {
			t.Fatal(err)
		}
		done, err := m.RunUntil(barrier)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return // the run finished before the barrier
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at %d: %v", barrier, err)
		}
		if got := finish(m); got != want {
			t.Fatalf("barrier %d: the snapshotted original diverged:\n got: %s\nwant: %s", barrier, got, want)
		}
		r, err := kernel.Restore(img)
		if err != nil {
			t.Fatalf("restore at %d: %v", barrier, err)
		}
		if got := finish(r); got != want {
			t.Fatalf("barrier %d: the restore diverged:\n got: %s\nwant: %s", barrier, got, want)
		}
		var pool kernel.Pool
		for i := 0; i < 2; i++ {
			pm, err := pool.Get(img)
			if err != nil {
				t.Fatalf("pooled restore %d at %d: %v", i, barrier, err)
			}
			if got := finish(pm); got != want {
				t.Fatalf("barrier %d: pooled restore %d diverged:\n got: %s\nwant: %s", barrier, i, got, want)
			}
			pool.Put(pm)
		}
	})
}
