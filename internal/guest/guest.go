// Package guest models guest virtual machines as traffic endpoints: a
// TCP-flavoured bulk-transfer flow (wget), an HTTP server with concurrent
// LAN clients (the Apache benchmark), and the plumbing that routes simulated
// wire traffic through the split drivers.
//
// The transport model captures what the paper's Figures 6.3 and 6.5 actually
// measure: when NetBack microreboots, in-flight segments are lost, the
// sender's retransmission timer backs off exponentially, and throughput
// recovers through a short ramp — so the cost of a restart is the RTO
// schedule, not just the raw device downtime.
package guest

import (
	"xoar/internal/blkdrv"
	"xoar/internal/hv"
	"xoar/internal/netdrv"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// TCP model constants.
const (
	// rtoInitial is the first retransmission timeout after a loss.
	rtoInitial = 200 * sim.Millisecond
	// rtoMax caps exponential backoff; combined with repeated outages this
	// produces the 3000–7000ms tail latencies of Figure 6.5.
	rtoMax = 3200 * sim.Millisecond
	// rampChunks is the slow-start recovery length after an outage: the
	// sender paces the first chunks while the window reopens.
	rampChunks = 16
)

// VM is a guest wired into the platform's drivers.
type VM struct {
	H   *hv.Hypervisor
	Dom xtypes.DomID

	Net  *netdrv.Frontend
	Blk  *blkdrv.Frontend
	NetB *netdrv.Backend
	BlkB *blkdrv.Backend

	// rpcs counts this VM's NetRPC exchanges, which number their flows.
	rpcs int64
}

// FetchResult reports a bulk transfer's outcome.
type FetchResult struct {
	Bytes   int64
	Elapsed sim.Duration
	// Retransmits counts RTO-driven resends.
	Retransmits int
	// Stalls counts distinct loss episodes.
	Stalls int
}

// ThroughputMBps is the transfer's goodput in MB/s.
func (r FetchResult) ThroughputMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// Sink selects where fetched data goes.
type Sink uint8

const (
	// SinkNull discards data (wget -O /dev/null).
	SinkNull Sink = iota
	// SinkDisk writes data through the guest's block device.
	SinkDisk
)

// Fetch downloads total bytes from a directly-attached LAN peer through the
// guest's vif, writing them to sink. It blocks the calling process until the
// transfer completes and models TCP loss recovery across NetBack restarts.
func (vm *VM) Fetch(p *sim.Proc, total int64, sink Sink) FetchResult {
	start := p.Now()
	var received int64
	res := FetchResult{}

	// Receiver: the guest application consuming from the vif.
	recvDone := sim.NewGate(vm.H.Env)
	receiver := vm.H.Env.Spawn("wget-recv", func(rp *sim.Proc) {
		defer recvDone.Open()
		for received < total {
			pkt, err := vm.Net.Recv(rp)
			if err != nil {
				if !vm.Net.WaitReconnect(rp, 30*sim.Second) {
					return
				}
				continue
			}
			if sink == SinkDisk {
				if werr := vm.Blk.Write(rp, pkt.Bytes, true); werr != nil {
					if !vm.Blk.WaitReconnect(rp, 30*sim.Second) {
						return
					}
					vm.Blk.Write(rp, pkt.Bytes, true)
				}
			}
			received += int64(pkt.Bytes)
		}
	})

	// Sender: the remote LAN peer pushing segments onto the wire.
	chunk := netdrv.ChunkBytes
	rto := rtoInitial
	inStall := false
	recovery := 0
	var seq int64
	sent := int64(0)
	for sent < total {
		if vm.NetB.WireDeliver(p, vm.Dom, chunk, seq) {
			seq++
			sent += int64(chunk)
			rto = rtoInitial
			if inStall {
				inStall = false
				recovery = rampChunks
			}
			if recovery > 0 {
				// Slow-start ramp: extra pacing that decays linearly.
				p.Sleep(sim.Duration(recovery) * chunkWire(vm, chunk) / rampChunks)
				recovery--
			}
			continue
		}
		// Loss: back off and retransmit.
		if !inStall {
			inStall = true
			res.Stalls++
		}
		res.Retransmits++
		p.Sleep(rto)
		rto *= 2
		if rto > rtoMax {
			rto = rtoMax
		}
	}

	// Tail: segments accepted onto the wire can still be lost if a restart
	// drains the backend queues; retransmit until the receiver has
	// everything (or it gave up).
	for received < total && !receiver.Done() {
		before := received
		if vm.NetB.WireDeliver(p, vm.Dom, chunk, seq) {
			seq++
		} else {
			res.Retransmits++
			p.Sleep(rto)
		}
		if received == before {
			p.Sleep(5 * sim.Millisecond)
		}
	}
	recvDone.Wait(p)
	res.Bytes = received
	res.Elapsed = p.Now().Sub(start)
	return res
}

func chunkWire(vm *VM, chunk int) sim.Duration {
	return sim.Duration(float64(chunk) / vm.NetB.NIC.LineRate * float64(sim.Second))
}

// NetRPC performs one request/response exchange with a LAN server (an NFS
// call, say): send the request through the vif, charge server think time,
// then receive the response off the wire. It returns false on loss — the
// caller owns retransmission policy.
func (vm *VM) NetRPC(p *sim.Proc, sendBytes, recvBytes int, serverTime sim.Duration) bool {
	// Flow numbers start at 1<<40, clear of Fetch's segment numbers.
	vm.rpcs++
	seq := 1<<40 + vm.rpcs
	if err := vm.Net.Send(p, sendBytes, seq); err != nil {
		return false
	}
	p.Sleep(serverTime + vm.NetB.NIC.LANLatency)
	if !vm.NetB.WireDeliver(p, vm.Dom, recvBytes, seq) {
		return false
	}
	if _, err := vm.Net.Recv(p); err != nil {
		return false
	}
	return true
}

// NetRPCRetry is NetRPC with TCP-style RTO retransmission until success or
// the attempt budget runs out.
func (vm *VM) NetRPCRetry(p *sim.Proc, sendBytes, recvBytes int, serverTime sim.Duration) (retries int, ok bool) {
	rto := rtoInitial
	for attempts := 0; attempts < 10; attempts++ {
		if vm.NetRPC(p, sendBytes, recvBytes, serverTime) {
			return retries, true
		}
		retries++
		if !vm.Net.Connected() {
			vm.Net.WaitReconnect(p, 30*sim.Second)
		}
		p.Sleep(rto)
		rto *= 2
		if rto > rtoMax {
			rto = rtoMax
		}
	}
	return retries, false
}
