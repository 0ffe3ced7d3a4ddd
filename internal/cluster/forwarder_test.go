package cluster

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestForwarderAllocatesNothingPerFrame runs a forwarding daemon alone
// on a machine whose NIC carries every frame, one frame per RunUntil
// slice: once the daemon is warm, receiving, looking up and forwarding
// a frame allocates nothing.
func TestForwarderAllocatesNothingPerFrame(t *testing.T) {
	m := kernel.New(kernel.Config{Seed: 3, CPUHz: testHz})
	defer m.Shutdown()
	carried := 0
	m.NIC().SetAddr(1)
	m.NIC().SetTx(func(Frame) bool {
		carried++
		return true
	})
	step, fork := ForwarderGuest(3_000)
	if _, err := m.Spawn(kernel.SpawnConfig{Name: "fwd", Content: "fwd v1", Step: step, Fork: fork}); err != nil {
		t.Fatal(err)
	}
	at := sim.Cycles(0)
	frame := func() {
		at += 200_000
		m.NIC().InjectRxFrame(at, Frame{Src: 2, Dst: 3})
		if done, err := m.RunUntil(at + 100_000); done || err != nil {
			t.Fatalf("RunUntil(%d) = %v, %v", at+100_000, done, err)
		}
	}
	for range 10 {
		frame()
	}
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("forwarding a frame allocated %v times, want 0", n)
	}
	if want := 10 + 101; carried != want {
		t.Fatalf("the daemon forwarded %d frames, want %d", carried, want)
	}
}
