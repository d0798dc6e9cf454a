package netdrv

import (
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"

	hvpkg "xoar/internal/hv"
)

// Frontend is NetFront: the guest-side virtual network device.
type Frontend struct {
	H     *hvpkg.Hypervisor
	Guest xtypes.DomID
	XS    *xenstore.Conn

	back *Backend
	v    *vif

	// ReceivedBytes counts payload delivered to the guest.
	ReceivedBytes int64
	SentBytes     int64
}

// NewFrontend constructs the guest-side driver.
func NewFrontend(h *hvpkg.Hypervisor, guest xtypes.DomID, xs *xenstore.Conn) *Frontend {
	return &Frontend{H: h, Guest: guest, XS: xs}
}

// advertise grants every queue's ring pages, allocates the event channels,
// and publishes the per-queue (ring-refs, port) tuples in XenStore. Extra
// queues are written before the legacy queue-0 key so a backend triggered
// by the legacy key always sees a complete advertisement.
func (f *Frontend) advertise(back *Backend) error {
	v, ok := back.vifs[f.Guest]
	if !ok {
		return fmt.Errorf("netfront: backend has no vif for %v: %w", f.Guest, xtypes.ErrNotFound)
	}
	f.back = back
	f.v = v
	type adv struct {
		path, val string
	}
	advs := make([]adv, 0, len(v.queues))
	for qi := range v.queues {
		// Two ring pages per queue (rx then tx), laid out from pfn 10 of
		// the guest's space.
		rxRef, err := f.H.Grant(f.Guest, back.Dom, 10+2*xtypes.PFN(qi), false)
		if err != nil {
			return err
		}
		txRef, err := f.H.Grant(f.Guest, back.Dom, 11+2*xtypes.PFN(qi), false)
		if err != nil {
			return err
		}
		port, err := f.H.EvtchnAllocUnbound(f.Guest, back.Dom)
		if err != nil {
			return err
		}
		advs = append(advs, adv{queueRefPath(f.Guest, qi), fmt.Sprintf("%d/%d/%d", rxRef, txRef, port)})
	}
	// Publish in reverse so the legacy queue-0 key lands last.
	for i := len(advs) - 1; i >= 0; i-- {
		if err := f.XS.Write(xenstore.TxNone, advs[i].path, advs[i].val); err != nil {
			return err
		}
		// Let the backend (and only it) read the advertisement.
		if err := f.XS.SetPerms(advs[i].path, xenstore.Perms{Owner: f.Guest, Read: []xtypes.DomID{back.Dom}}); err != nil {
			return err
		}
	}
	f.XS.Write(xenstore.TxNone, frontPath(f.Guest)+"/state", "initialised")
	return nil
}

// Connect performs the frontend half of the handshake against back:
// grant the ring pages, allocate the event channels, advertise everything
// in XenStore, then wait for the backend to flip to connected.
func (f *Frontend) Connect(p *sim.Proc, back *Backend) error {
	if err := f.advertise(back); err != nil {
		return err
	}
	if err := back.AcceptConnection(p, f.Guest); err != nil {
		return err
	}
	f.XS.Write(xenstore.TxNone, frontPath(f.Guest)+"/state", "connected")
	return nil
}

// Connected reports whether the vif is currently usable.
func (f *Frontend) Connected() bool {
	return f.v != nil && f.v.connected && !f.v.queues[0].rx.Broken()
}

// Queues reports the vif's queue count.
func (f *Frontend) Queues() int {
	if f.v == nil {
		return 0
	}
	return len(f.v.queues)
}

// recvOne charges guest CPU for a popped packet and acks its ring slot.
func (f *Frontend) recvOne(p *sim.Proc, q *vifQueue, pkt Packet) {
	f.H.Compute(p, f.Guest, frontChunkCPU)
	// Ack may race a Break between pop and push; a failed ack is harmless
	// (the whole ring is being reset).
	if !q.rx.Broken() {
		q.rx.PushResponse(ack{})
	}
	f.ReceivedBytes += int64(pkt.Bytes)
}

// Recv blocks until the next packet arrives on any queue, charges guest
// CPU, and acknowledges the ring slot. It returns an error when the backend
// disconnects mid-receive (microreboot); the caller should WaitReconnect.
func (f *Frontend) Recv(p *sim.Proc) (Packet, error) {
	if f.v == nil {
		return Packet{}, fmt.Errorf("netfront: not connected: %w", xtypes.ErrInvalid)
	}
	if len(f.v.queues) == 1 {
		// Single queue: block on the ring itself, which also arms
		// req_event so the backend's wake-up push notifies.
		q := f.v.queues[0]
		pkt, err := q.rx.PopRequest(p)
		if err != nil {
			return Packet{}, err
		}
		f.recvOne(p, q, pkt)
		return pkt, nil
	}
	for {
		for _, q := range f.v.queues {
			if q.rx.Broken() {
				return Packet{}, fmt.Errorf("netfront: rx ring broken: %w", xtypes.ErrShutdown)
			}
			if pkt, ok := q.rx.TryPopRequest(); ok {
				f.recvOne(p, q, pkt)
				return pkt, nil
			}
		}
		f.v.rxSig.Wait(p)
	}
}

// Send transmits a packet on its flow's queue, blocking while that tx ring
// is full and reaping acknowledgements. Returns an error on disconnect.
func (f *Frontend) Send(p *sim.Proc, bytes int, seq int64) error {
	if f.v == nil {
		return fmt.Errorf("netfront: not connected: %w", xtypes.ErrInvalid)
	}
	q := f.v.queueFor(seq)
	// Reap completions to free slots.
	for {
		if _, ok := q.tx.TryPopResponse(); !ok {
			break
		}
	}
	f.H.Compute(p, f.Guest, frontChunkCPU)
	// A full ring means completions are outstanding: harvest them (blocking)
	// instead of waiting on raw space, which only frees via this very loop.
	for !q.tx.TryPushRequest(Packet{Bytes: bytes, Seq: seq}) {
		if _, err := q.tx.PopResponse(p); err != nil {
			return err
		}
	}
	f.SentBytes += int64(bytes)
	return nil
}

// WaitReconnect blocks until the backend finishes a microreboot and the vif
// is connected again, or the timeout expires. Frontends call this after a
// Recv/Send error — virtual machine protocols are designed to renegotiate
// (§3.3), which is what makes driver VMs the ideal reboot container.
func (f *Frontend) WaitReconnect(p *sim.Proc, timeout sim.Duration) bool {
	deadline := f.H.Env.Now().Add(timeout)
	for f.H.Env.Now() < deadline {
		if f.Connected() {
			return true
		}
		// Poll on the backend's serving gate; the gate reopens when Restart
		// completes. A small poll interval stands in for the XenStore watch
		// wakeup without registering per-wait watches.
		p.Sleep(5 * sim.Millisecond)
	}
	return f.Connected()
}
