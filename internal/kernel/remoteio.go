package kernel

import (
	"repro/internal/device"
	"repro/internal/sim"
)

// Remote I/O is the host side of a device that other machines mount (a
// cluster's shared swap). Each I/O a client submits against the device
// costs this machine two interrupt-context events at the I/O's
// completion time t, billed to whichever task is then current: the
// request frame's NIC receive interrupt at (t, s), then the service
// work (block layer, copy, reply) at (t, s+1), where s and s+1 are
// queue sequence numbers the I/O reserves when it is submitted.
//
// Completions wait in a device.Backlog, and only its head is in the
// event queue: first at (t, s) for the rx interrupt, then at (t, s+1)
// for the service, so every event fires exactly where the two events
// of a separately scheduled I/O would. Clients that share a device
// channel can complete an I/O before the backlog's tail (a read
// overtakes queued writes; one client's clock capped the channel lower
// than another's); such an I/O is scheduled straight into the queue as
// its two events instead.

// remoteIO is a machine's backlog of remote I/O completions. It is
// machine state: clone copies it along with the queue holding its head.
type remoteIO struct {
	cost    sim.Cycles // service work per I/O
	fifo    device.Backlog
	rxFired bool // the head's rx interrupt has fired; its service is queued

	// fire holds the three "remote-io" callbacks by restore tag, bound
	// at first use so a machine that serves no remote I/O carries none.
	fire [3]func()
}

// Restore tags for "remote-io" events (sim.Event.Tag).
const (
	rioDirect  = iota // the service of an I/O scheduled straight into the queue
	rioHeadRx         // the backlog head's rx interrupt
	rioHeadSvc        // the backlog head's service
)

// ServeRemoteIO makes the machine the host of a device other machines
// mount: each I/O booked with RemoteIO costs cost cycles of service
// work, billed like a disk interrupt.
func (m *Machine) ServeRemoteIO(cost sim.Cycles) { m.rio.cost = cost }

// RemoteIO books one remote I/O that completes at virtual time at: its
// request frame's rx interrupt, then ServeRemoteIO's service work, both
// at at. A cluster's Disk.OnIO hook calls it in the client's context.
// A shut-down machine serves nothing. Once the backlog has grown,
// booking an I/O allocates nothing.
func (m *Machine) RemoteIO(at sim.Cycles) {
	if m.closed {
		return
	}
	b := &m.rio
	if b.fifo.Len() > 0 && at < b.fifo.Tail().At {
		m.nic.InjectRx(at)
		m.queue.ScheduleTagged(at, "remote-io", rioDirect, m.rioFire(rioDirect))
		return
	}
	seq := m.queue.Reserve()
	m.queue.Reserve() // the service's: seq+1
	b.fifo.Push(device.Pending{At: at, Seq: seq})
	if b.fifo.Len() == 1 {
		m.queue.ScheduleReserved(at, seq, "remote-io", rioHeadRx, m.rioFire(rioHeadRx))
	}
}

// rioFire returns the callback of a "remote-io" event by restore tag.
func (m *Machine) rioFire(tag uint64) func() {
	b := &m.rio
	if b.fire[rioDirect] == nil {
		b.fire = [...]func(){rioDirect: m.remoteService, rioHeadRx: m.rioHeadRx, rioHeadSvc: m.rioHeadSvc}
	}
	return b.fire[tag]
}

// rioHeadRx fires the backlog head's rx interrupt. It enters the
// head's service in the queue first: the interrupt's lump fires due
// events, and the service is due at once.
func (m *Machine) rioHeadRx() {
	h := m.rio.fifo.Head()
	m.rio.rxFired = true
	m.queue.ScheduleReserved(h.At, h.Seq+1, "remote-io", rioHeadSvc, m.rioFire(rioHeadSvc))
	m.nic.DeliverRx()
}

// rioHeadSvc pops the head and enters the next one in the queue before
// running the service, whose lump fires due events too.
func (m *Machine) rioHeadSvc() {
	b := &m.rio
	b.fifo.Pop()
	b.rxFired = false
	if b.fifo.Len() > 0 {
		h := b.fifo.Head()
		m.queue.ScheduleReserved(h.At, h.Seq, "remote-io", rioHeadRx, m.rioFire(rioHeadRx))
	}
	m.remoteService()
}

// remoteService runs one remote I/O's service work.
func (m *Machine) remoteService() { m.irqWork(device.IRQDisk, m.rio.cost) }

// pending reports how many events the backlog stands for: two per
// I/O, less the head's rx interrupt once it has fired.
func (b *remoteIO) pending() int {
	n := 2 * b.fifo.Len()
	if b.rxFired {
		n--
	}
	return n
}

// copyTo copies the backlog into c, which keeps its own callbacks.
func (b *remoteIO) copyTo(c *remoteIO) {
	c.cost, c.fifo, c.rxFired = b.cost, b.fifo.Clone(), b.rxFired
}
