// Package netdrv implements the paravirtualized split network driver (§4.5.1,
// §5.4): NetBack, a driver domain owning a physical NIC and exposing virtual
// interfaces (vifs) to guests, and NetFront, the guest-side virtual device.
// The connection handshake, the ring-page mappings and the XenStore states
// are xenbus's; a vif's queue advertises two ring pages, rx then tx.
//
// The data path amortizes the way real netback does: pumps drain whole
// bursts of descriptors per wakeup (one fixed batch charge plus a
// per-descriptor increment), rings suppress notifies the peer did not ask
// for (req_event/rsp_event), and a vif may carry N queues with flows hashed
// across them so a backend scales past a single ring's slot count.
//
// NetBack is restartable (Figure 5.1): on a microreboot it breaks every vif,
// rolls back, re-attaches to the NIC, and either renegotiates with frontends
// via XenStore ("slow", ~260ms downtime) or restores the negotiated
// configuration from its recovery box ("fast", ~140ms), reproducing the two
// curves of Figure 6.3.
package netdrv

import (
	"fmt"

	"xoar/internal/hv"
	"xoar/internal/ring"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/telemetry"
	"xoar/internal/xenbus"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"

	hwpkg "xoar/internal/hw"
)

// Packet is a batch of payload bytes moving through the virtual network.
// Real rings carry page-sized segments; batching keeps event counts sane
// without changing the queueing structure. Seq doubles as the flow key for
// multi-queue vifs: packets with equal Seq always land on the same queue.
type Packet struct {
	Bytes int
	Seq   int64
}

// ack is the empty response completing a ring slot.
type ack struct{}

// Tunables of the backend model.
const (
	// ChunkBytes is the modelling batch size (matches a 16-segment TSO batch).
	ChunkBytes = 64 * 1024
	// perBatchCPU is the fixed cost of one pump wakeup: the event upcall and
	// scheduling. perDescCPU is the per-descriptor cost: copy, bridge hop,
	// grant ops. At batch size 1 they sum to the historical 18µs per-chunk
	// charge, so single-descriptor traffic (RPCs, pings) is priced as before.
	perBatchCPU = 6 * sim.Microsecond
	perDescCPU  = 12 * sim.Microsecond
	// frontChunkCPU is frontend CPU per chunk.
	frontChunkCPU = 12 * sim.Microsecond
)

// vifQueue is one ring pair of a vif. Single-queue vifs (the default) have
// exactly one; multi-queue vifs spread flows across several, each with its
// own event channel and pump pair, as Linux xen-netback's queues do.
type vifQueue struct {
	id int

	// rx carries wire→guest packets: the backend produces, the guest consumes.
	rx *ring.Ring[Packet, ack]
	// tx carries guest→wire packets.
	tx *ring.Ring[Packet, ack]

	// inbox queues packets demuxed off the wire for this queue.
	inbox *sim.Chan[Packet]

	rxPump, txPump *sim.Proc
}

// vifClass lays each vif queue's two ring pages, rx then tx, out from pfn
// 10 of the guest's space.
var vifClass = xenbus.Class{Name: "vif", Pages: 2, FirstPFN: 10}

// vif is one guest's virtual interface, shared between back and front.
type vif struct {
	xenbus.Device
	queues []*vifQueue

	// rxSig wakes the frontend's multi-queue receive path whenever any
	// queue's rx ring gains a packet or breaks. (A single-queue frontend
	// blocks directly on its ring instead, which also arms rsp/req events.)
	rxSig *sim.Signal
}

// queueFor hashes a flow id onto one of the vif's queues. Fibonacci
// multiplicative hashing keeps adjacent flow ids well spread.
func (v *vif) queueFor(seq int64) *vifQueue {
	if len(v.queues) == 1 {
		return v.queues[0]
	}
	mix := uint64(seq) * 0x9E3779B97F4A7C15
	return v.queues[mix%uint64(len(v.queues))]
}

// Backend is NetBack: one per physical NIC (§5.4).
type Backend struct {
	xenbus.Backend
	NIC *hwpkg.NIC

	vifs map[xtypes.DomID]*vif

	// TxSink, when set, receives every packet after it leaves the wire —
	// the workload models use it to route guest responses back to their
	// simulated LAN peers.
	TxSink func(guest xtypes.DomID, pkt Packet)

	// Counters for the experiments.
	DroppedPackets int64
	ForwardedRx    int64
	ForwardedTx    int64
	RestartCount   int

	// Pre-resolved telemetry handles; nil when telemetry is disabled.
	rttRx, rttTx              *telemetry.Histogram
	batchRx, batchTx          *telemetry.Histogram
	notifySentRx, notifySupRx *telemetry.Counter
	notifySentTx, notifySupTx *telemetry.Counter
}

// DataPathStats aggregates ring descriptor and notify-decision counters
// across every vif queue of the backend. The tx direction counts the
// frontends' request pushes (guest→wire), rx the backend's (wire→guest);
// Descs/Notifies is the descriptors-per-wakeup ratio of Figure 6.1's
// amortization argument.
type DataPathStats struct {
	TxDescs, TxNotifies, TxSuppressed int64
	RxDescs, RxNotifies, RxSuppressed int64
}

// DataPathStats snapshots the aggregate ring counters.
func (b *Backend) DataPathStats() DataPathStats {
	var s DataPathStats
	for _, v := range b.vifs {
		for _, q := range v.queues {
			tst := q.tx.Stats()
			s.TxDescs += tst.ReqPushed
			s.TxNotifies += tst.NotifiesToBack
			s.TxSuppressed += tst.SuppressedToBack
			rst := q.rx.Stats()
			s.RxDescs += rst.ReqPushed
			s.RxNotifies += rst.NotifiesToBack
			s.RxSuppressed += rst.SuppressedToBack
		}
	}
	return s
}

// SetAlwaysNotify switches every vif ring between suppressed (default) and
// notify-per-push operation. The ablation arm of the batching benchmarks
// uses it to measure the per-descriptor baseline.
func (b *Backend) SetAlwaysNotify(on bool) {
	for _, v := range b.vifs {
		for _, q := range v.queues {
			q.rx.AlwaysNotify = on
			q.tx.AlwaysNotify = on
		}
	}
}

// SetMetrics attaches a telemetry registry (nil = disabled). The ring
// round-trip histograms measure, per batch, the time from entering the
// backend (wire inbox / tx ring pop) to completion (pushed to the guest
// ring / handed to the NIC and acked). Batch-size histograms count
// descriptors serviced per pump wakeup; the notify counters split the
// event-channel signals the rings sent versus suppressed (DESIGN.md §8).
func (b *Backend) SetMetrics(reg *telemetry.Registry) {
	b.rttRx = reg.Histogram("netback_ring_rtt_us", telemetry.LatencyUSBuckets, telemetry.L("dir", "rx"))
	b.rttTx = reg.Histogram("netback_ring_rtt_us", telemetry.LatencyUSBuckets, telemetry.L("dir", "tx"))
	b.batchRx = reg.Histogram("netback_batch_size", telemetry.DepthBuckets, telemetry.L("dir", "rx"))
	b.batchTx = reg.Histogram("netback_batch_size", telemetry.DepthBuckets, telemetry.L("dir", "tx"))
	b.notifySentRx = reg.Counter("netback_notify_sent_total", telemetry.L("dir", "rx"))
	b.notifySupRx = reg.Counter("netback_notify_suppressed_total", telemetry.L("dir", "rx"))
	b.notifySentTx = reg.Counter("netback_notify_sent_total", telemetry.L("dir", "tx"))
	b.notifySupTx = reg.Counter("netback_notify_suppressed_total", telemetry.L("dir", "tx"))
}

// NewBackend constructs NetBack in domain dom, driving nic.
func NewBackend(h *hv.Hypervisor, dom xtypes.DomID, nic *hwpkg.NIC, xs *xenstore.Conn) *Backend {
	return &Backend{
		Backend: xenbus.NewBackend(h, dom, xs, &vifClass),
		NIC:     nic,
		vifs:    make(map[xtypes.DomID]*vif),
	}
}

// Start initializes the physical NIC and opens for service. Run inside a sim
// process during boot; the NIC init cost is the dominant term.
func (b *Backend) Start(p *sim.Proc) {
	if !b.NIC.Initialized() {
		b.NIC.Reset(p)
	}
	b.Ready()
}

// Name implements snapshot.Restartable.
func (b *Backend) Name() string { return "netback" }

// CreateVif provisions a single-queue vif for guest. The toolstack calls
// this (through its XenStore writes) when attaching a network device.
func (b *Backend) CreateVif(guest xtypes.DomID) *vif {
	return b.CreateVifQueues(guest, 1)
}

// CreateVifQueues provisions a vif with n ring pairs. Flows are hashed
// across the queues; each queue gets its own pump pair, so a multi-queue
// vif scales past a single ring's slot count at 10G+ line rates.
func (b *Backend) CreateVifQueues(guest xtypes.DomID, n int) *vif {
	n = max(n, 1)
	v := &vif{rxSig: sim.NewSignal(b.H.Env)}
	b.Init(&v.Device, guest, n)
	for qi := 0; qi < n; qi++ {
		v.queues = append(v.queues, &vifQueue{
			id:    qi,
			rx:    ring.New[Packet, ack](b.H.Env, ring.DefaultSlots),
			tx:    ring.New[Packet, ack](b.H.Env, ring.DefaultSlots),
			inbox: sim.NewChan[Packet](b.H.Env),
		})
	}
	b.vifs[guest] = v
	return v
}

// RemoveVif tears down a guest's vif (guest destroyed or detached) and
// unmaps its ring pages.
func (b *Backend) RemoveVif(guest xtypes.DomID) {
	v, ok := b.vifs[guest]
	if !ok {
		return
	}
	b.stopPumps(v)
	for _, q := range v.queues {
		q.rx.Break()
		q.tx.Break()
	}
	v.rxSig.Broadcast()
	delete(b.vifs, guest)
	v.Remove()
}

// startPumps spawns the per-queue forwarding processes. The descriptor
// buffers are allocated here, once per pump lifetime; the loops themselves
// (runRxPump/runTxPump) are declared hot and stay allocation-free.
func (b *Backend) startPumps(v *vif) {
	for _, q := range v.queues {
		q := q
		// rxPump: wire inbox -> rx ring, a burst per wakeup.
		q.rxPump = b.H.Env.Spawn(fmt.Sprintf("netback-rx-%v-q%d", v.Guest, q.id), func(p *sim.Proc) {
			b.runRxPump(v, q, p, make([]Packet, ring.DefaultSlots))
		})
		// txPump: tx ring -> wire, draining the ring per wakeup.
		q.txPump = b.H.Env.Spawn(fmt.Sprintf("netback-tx-%v-q%d", v.Guest, q.id), func(p *sim.Proc) {
			b.runTxPump(v, q, p, make([]Packet, ring.DefaultSlots), make([]ack, ring.DefaultSlots))
		})
	}
}

// runRxPump forwards wire-delivered packets from the queue's inbox onto the
// guest-facing rx ring, a burst per wakeup. This is the NetBack receive data
// path: steady state must not allocate.
//
//xoarlint:hot
func (b *Backend) runRxPump(v *vif, q *vifQueue, p *sim.Proc, buf []Packet) {
	for {
		pkt, ok := q.inbox.Recv(p)
		if !ok {
			return
		}
		// Drain whatever else the wire delivered while we slept:
		// the whole burst is serviced under one batch charge.
		buf[0] = pkt
		n := 1
		for n < len(buf) {
			more, ok := q.inbox.TryRecv()
			if !ok {
				break
			}
			buf[n] = more
			n++
		}
		start := p.Now()
		// Reap pending acks to free rx slots.
		for {
			if _, ok := q.rx.TryPopResponse(); !ok {
				break
			}
		}
		b.H.Compute(p, b.Dom, perBatchCPU+sim.Duration(n)*perDescCPU)
		before := q.rx.Stats()
		pushed := 0
		for pushed < n {
			k := q.rx.TryPushRequestBatch(buf[pushed:n])
			pushed += k
			if pushed == n {
				break
			}
			if k == 0 {
				// Ring full: the free slots are held by unconsumed
				// acks, so block on the next ack rather than raw
				// space.
				if _, err := q.rx.PopResponse(p); err != nil {
					// Ring broken mid-batch (restart): the in-hand
					// descriptor is the counted drop; the rest of
					// the burst is accounted like inbox residue
					// drained by Restart.
					b.DroppedPackets++
					return
				}
			}
		}
		after := q.rx.Stats()
		b.notifySentRx.Add(after.NotifiesToBack - before.NotifiesToBack)
		b.notifySupRx.Add(after.SuppressedToBack - before.SuppressedToBack)
		b.batchRx.Observe(float64(n))
		v.rxSig.Broadcast()
		b.ForwardedRx += int64(n)
		b.rttRx.Observe(float64(p.Now().Sub(start)) / float64(sim.Microsecond))
		// The guest wakes on the ring's own signal; the ring counted the
		// notify decision (read above) and perBatchCPU priced the upcall.
	}
}

// runTxPump drains the guest-facing tx ring onto the wire, a batch per
// wakeup. This is the NetBack transmit data path: steady state must not
// allocate.
//
//xoarlint:hot
func (b *Backend) runTxPump(v *vif, q *vifQueue, p *sim.Proc, buf []Packet, acks []ack) {
	var prev ring.Stats
	for {
		n, err := q.tx.PopRequestBatch(p, buf)
		if err != nil {
			return // broken
		}
		start := p.Now()
		b.H.Compute(p, b.Dom, perBatchCPU+sim.Duration(n)*perDescCPU)
		for i := 0; i < n; i++ {
			b.NIC.Transmit(p, buf[i].Bytes)
		}
		if q.tx.Broken() {
			return
		}
		q.tx.PushResponseBatch(acks[:n])
		b.ForwardedTx += int64(n)
		b.batchTx.Observe(float64(n))
		cur := q.tx.Stats()
		b.notifySentTx.Add(cur.NotifiesToBack - prev.NotifiesToBack)
		b.notifySupTx.Add(cur.SuppressedToBack - prev.SuppressedToBack)
		prev = cur
		b.rttTx.Observe(float64(p.Now().Sub(start)) / float64(sim.Microsecond))
		if b.TxSink != nil {
			for i := 0; i < n; i++ {
				b.TxSink(v.Guest, buf[i])
			}
		}
	}
}

func (b *Backend) stopPumps(v *vif) {
	for _, q := range v.queues {
		if q.rxPump != nil {
			q.rxPump.Kill()
			q.rxPump = nil
		}
		if q.txPump != nil {
			q.txPump.Kill()
			q.txPump = nil
		}
	}
}

// WireDeliver models a packet arriving from the physical wire for guest. It
// charges NIC receive time, then hands the packet to the flow's queue. It
// returns false — the packet is dropped — when the backend is mid-microreboot
// or the guest's vif is not connected; the sender's transport sees this as
// loss.
//
//xoarlint:hot
func (b *Backend) WireDeliver(p *sim.Proc, guest xtypes.DomID, bytes int, seq int64) bool {
	b.NIC.Receive(p, bytes)
	if b.Gate.Closed() {
		b.DroppedPackets++
		return false
	}
	v, ok := b.vifs[guest]
	if !ok || !v.Connected {
		b.DroppedPackets++
		return false
	}
	v.queueFor(seq).inbox.Send(Packet{Bytes: bytes, Seq: seq})
	return true
}

// Restart implements snapshot.Restartable: the microreboot recovery path.
// The engine has already rolled back memory; this re-attaches the NIC and
// re-establishes every vif.
func (b *Backend) Restart(p *sim.Proc, fast bool) {
	b.RestartCount++
	b.Gate.Reset()
	// Break every ring: frontends observe the disconnect.
	for _, v := range xenbus.InGuestOrder(b.vifs) {
		b.stopPumps(v)
		for _, q := range v.queues {
			q.rx.Break()
			q.tx.Break()
			// Drain stale wire packets queued for the dead instance.
			for {
				if _, ok := q.inbox.TryRecv(); !ok {
					break
				}
			}
		}
		v.Disconnect()
		v.rxSig.Broadcast()
	}
	// Re-attach to live hardware (device state was left intact), then
	// restore vif configuration from the recovery box or renegotiate it.
	snapshot.Reconnect(p, fast)
	for _, v := range xenbus.InGuestOrder(b.vifs) {
		for _, q := range v.queues {
			q.rx.Reset()
			q.tx.Reset()
		}
		v.Reconnect()
		b.startPumps(v)
	}
	b.Ready()
}
