// Cluster checkpoint/fork: Snapshot captures a whole lockstep fabric
// — every machine's kernel image plus every link's and pipe's wire
// state — at a round boundary (the quiesced instant RunUntil leaves
// the cluster at), and Restore rebuilds an independent cluster that
// continues the identical history. The image is immutable and
// reusable: restoring it twice yields two clusters that diverge only
// through post-restore inputs, which is what a campaign's shared-
// warmup fork amounts to one level up from kernel.Machine.Fork.
//
// Scope: a cluster is snapshottable while every member is live. A
// finished, crashed, or reboot-pending machine is a retired
// incarnation whose ledgers the original cluster owns; checkpoint
// before the failure instead — a snapshot taken with CrashAt still
// pending replays the crash, the restart, and the per-incarnation
// ledgers identically on both sides. Guests that transmit host-side
// on captured *Link handles (rather than through the member's
// forwarding table via NetSend/NetForward) do not survive a cluster
// restore: the restored fabric has its own links, so such guests must
// be declared forkless and checkpointed before they spawn.
package cluster

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// pipeImage is one pipe's serialisable dynamic state. The static
// shape (rate, depth, RED policy, qdisc, flap schedule, home member)
// is rebuilt from the Config; only what the run mutated is carried.
type pipeImage struct {
	pipeRun
	rngState uint64
	drr      *device.DRR // frozen backlog clone; nil on FIFO pipes
}

// ClusterImage is a Cluster's full checkpoint: the declaration it was
// built from, one kernel image per machine, and every link direction's
// and pipe's wire state. A pending crash needs no field of its own: a
// snapshot requires every member live and uncrashed, so its pending
// crash is still the declaration's CrashAt. Images are immutable —
// Restore deep-copies all mutable state — so one image serves any
// number of restores.
type ClusterImage struct {
	cfg      Config
	machines []*kernel.MachineImage
	links    []counts    // 2 per declared link: forward, then reverse
	pipes    []pipeImage // by pipe id (wiring order)
}

// At reports the image's lockstep frontier: the earliest machine
// clock, the instant the restored cluster resumes from.
func (img *ClusterImage) At() sim.Cycles {
	var min sim.Cycles
	for i, mi := range img.machines {
		if t := mi.At(); i == 0 || t < min {
			min = t
		}
	}
	return min
}

// Machines reports the number of machine images.
func (img *ClusterImage) Machines() int { return len(img.machines) }

// Snapshot captures the cluster's complete deterministic state at a
// round boundary (between Run rounds — in practice, after a RunUntil
// barrier). Every machine must be live and individually
// snapshottable; a finished, crashed, or reboot-pending member makes
// the cluster unsnapshottable (errors.Is kernel.ErrNotSnapshottable),
// as does any machine hosting a started Body guest or a Step guest
// spawned without a Fork function. A still-pending CrashAt schedule
// is part of the declaration: the restored cluster takes the crash,
// reboot, and incarnation split identically.
func (c *Cluster) Snapshot() (*ClusterImage, error) {
	for i := range c.members {
		// A reboot-pending member is done, and a rebooted one crashed.
		if mb := &c.members[i]; mb.done || mb.crashed {
			return nil, fmt.Errorf("cluster: %s has finished, crashed, or rebooted; snapshot requires every machine live: %w",
				c.machineDesc(i), kernel.ErrNotSnapshottable)
		}
	}
	img := &ClusterImage{cfg: c.cfg, machines: make([]*kernel.MachineImage, len(c.members))}
	for i := range c.members {
		mi, err := c.members[i].m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", c.machineDesc(i), err)
		}
		img.machines[i] = mi
	}
	for _, l := range c.links {
		img.links = append(img.links, l.counts, l.rev.counts)
	}
	for _, p := range c.pipes {
		pi := pipeImage{pipeRun: p.pipeRun, rngState: p.rng.State()}
		if p.drr != nil {
			pi.drr = p.drr.Clone()
		}
		img.pipes = append(img.pipes, pi)
	}
	return img, nil
}

// Restore rebuilds an independent cluster from an image: links, pipes
// and forwarding tables are rewired from the declaration in the
// identical order before any machine is restored, then each machine is
// restored from its kernel image (pending cluster-owned events — DRR
// kick timers — are re-pointed at the rebuilt pipes; a swap host's
// image carries its own remote I/O backlog) and plugged in as its
// member, and the wire state is overlaid. Boot routines do NOT run
// again: the tasks they spawned are part of the machine images. The
// restored cluster continues the image's history under the same
// barrier sequence; the image remains valid for further restores.
func Restore(img *ClusterImage) (*Cluster, error) {
	c, perUs, err := shellFrom(img.cfg)
	if err != nil {
		return nil, err
	}
	if len(img.links) != 2*len(c.links) || len(img.pipes) != len(c.pipes) {
		return nil, fmt.Errorf("cluster: image wiring mismatch: %d link directions and %d pipes in image, %d and %d rebuilt",
			len(img.links), len(img.pipes), 2*len(c.links), len(c.pipes))
	}
	// A "pipe-service" tag outside the pipe table is not this
	// cluster's event, and the kernel reports it.
	ext := func(kind string, tag uint64) (func(), bool) {
		if kind != "pipe-service" || tag >= uint64(len(c.pipes)) {
			return nil, false
		}
		return c.pipes[tag].kickFire, true
	}
	for i, mi := range img.machines {
		m, err := kernel.RestoreWith(mi, ext)
		if err != nil {
			c.Shutdown()
			return nil, fmt.Errorf("cluster: restore %s: %w", c.machineDesc(i), err)
		}
		c.plug(i, m)
	}
	c.couple(perUs, true)
	for i, l := range c.links {
		l.counts, l.rev.counts = img.links[2*i], img.links[2*i+1]
	}
	for i, p := range c.pipes {
		pi := img.pipes[i]
		p.pipeRun = pi.pipeRun
		p.rng.SetState(pi.rngState)
		if pi.drr != nil {
			// Clone again: the image's backlog stays frozen for reuse.
			p.drr = pi.drr.Clone()
		}
	}
	return c, nil
}

// Fork snapshots the cluster and restores an independent copy: both
// continue the identical history from the fork instant until their
// inputs diverge. The snapshot's validity rules apply.
func (c *Cluster) Fork() (*Cluster, error) {
	img, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	return Restore(img)
}
