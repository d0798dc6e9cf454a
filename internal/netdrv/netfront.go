package netdrv

import (
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/xenbus"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"

	hvpkg "xoar/internal/hv"
)

// Frontend is NetFront: the guest-side virtual network device.
type Frontend struct {
	H     *hvpkg.Hypervisor
	Guest xtypes.DomID
	XS    *xenstore.Conn

	v *vif
}

// NewFrontend constructs the guest-side driver.
func NewFrontend(h *hvpkg.Hypervisor, guest xtypes.DomID, xs *xenstore.Conn) *Frontend {
	return &Frontend{H: h, Guest: guest, XS: xs}
}

// Connect performs the frontend half of the handshake against back (see
// xenbus) and starts the vif's pumps once the backend has accepted.
func (f *Frontend) Connect(p *sim.Proc, back *Backend) error {
	v, ok := back.vifs[f.Guest]
	if !ok {
		return fmt.Errorf("netfront: backend has no vif for %v: %w", f.Guest, xtypes.ErrNotFound)
	}
	f.v = v
	if err := v.Connect(f.XS); err != nil {
		return err
	}
	back.startPumps(v)
	return nil
}

// Connected reports whether the vif is currently usable.
func (f *Frontend) Connected() bool {
	return f.v != nil && f.v.Connected && !f.v.queues[0].rx.Broken()
}

// recvOne charges guest CPU for a popped packet and acks its ring slot.
func (f *Frontend) recvOne(p *sim.Proc, q *vifQueue) {
	f.H.Compute(p, f.Guest, frontChunkCPU)
	// Ack may race a Break between pop and push; a failed ack is harmless
	// (the whole ring is being reset).
	if !q.rx.Broken() {
		q.rx.PushResponse(ack{})
	}
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
		f.recvOne(p, q)
		return pkt, nil
	}
	for {
		for _, q := range f.v.queues {
			if q.rx.Broken() {
				return Packet{}, fmt.Errorf("netfront: rx ring broken: %w", xtypes.ErrShutdown)
			}
			if pkt, ok := q.rx.TryPopRequest(); ok {
				f.recvOne(p, q)
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
	return nil
}

// WaitReconnect blocks until the backend finishes a microreboot and the vif
// is connected again, or the timeout expires (xenbus.WaitReconnect).
func (f *Frontend) WaitReconnect(p *sim.Proc, timeout sim.Duration) bool {
	return xenbus.WaitReconnect(p, timeout, f.Connected)
}
