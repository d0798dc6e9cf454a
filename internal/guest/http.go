package guest

import (
	"fmt"

	"xoar/internal/netdrv"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// HTTP model constants, calibrated so an idle platform serves ~3200 req/s at
// concurrency 5, matching Figure 6.5's absolute scale.
const (
	requestBytes = 512
	// serverCPUPerReq is Apache's per-request work (accept, parse, sendfile).
	serverCPUPerReq = 550 * sim.Microsecond
	// serverWorkers bounds in-flight request handling (Apache's MPM).
	serverWorkers = 4
)

// HTTPServer is the guest-side web server consuming requests from the vif.
type HTTPServer struct {
	vm        *VM
	pageBytes int
	workQ     *sim.Chan[int64]
	procs     []*sim.Proc
	Served    int64
}

// StartHTTPServer spawns the server processes inside the guest: an acceptor
// that drains the vif and a worker pool that computes and responds.
func (vm *VM) StartHTTPServer(pageBytes int) *HTTPServer {
	s := &HTTPServer{vm: vm, pageBytes: pageBytes, workQ: sim.NewChan[int64](vm.H.Env)}
	acceptor := vm.H.Env.Spawn(fmt.Sprintf("httpd-accept-%v", vm.Dom), func(p *sim.Proc) {
		for {
			pkt, err := vm.Net.Recv(p)
			if err != nil {
				if !vm.Net.WaitReconnect(p, 60*sim.Second) {
					return
				}
				continue
			}
			s.workQ.Send(pkt.Seq)
		}
	})
	s.procs = append(s.procs, acceptor)
	for i := 0; i < serverWorkers; i++ {
		w := vm.H.Env.Spawn(fmt.Sprintf("httpd-worker-%v-%d", vm.Dom, i), func(p *sim.Proc) {
			for {
				seq, ok := s.workQ.Recv(p)
				if !ok {
					return
				}
				vm.H.Compute(p, vm.Dom, serverCPUPerReq)
				// Send the response; on disconnect, wait out the microreboot
				// and retry once (the client retransmits anyway).
				if err := vm.Net.Send(p, s.pageBytes, seq); err != nil {
					if vm.Net.WaitReconnect(p, 60*sim.Second) {
						vm.Net.Send(p, s.pageBytes, seq)
					}
				}
				s.Served++
			}
		})
		s.procs = append(s.procs, w)
	}
	return s
}

// Stop kills the server processes.
func (s *HTTPServer) Stop() {
	for _, p := range s.procs {
		p.Kill()
	}
	s.workQ.Close()
}

// HTTPBenchResult mirrors the Apache benchmark's report (Figure 6.5).
type HTTPBenchResult struct {
	Requests    int
	Concurrency int
	TotalTime   sim.Duration
	// MeanLatency is time-per-request at the given concurrency.
	MeanLatency sim.Duration
	// MaxLatency is the longest single request (the 3000–7000ms outliers
	// under restarts).
	MaxLatency sim.Duration
	// Errors counts requests abandoned after repeated timeouts.
	Errors int
	Bytes  int64
}

// RequestsPerSecond is the benchmark's throughput.
func (r HTTPBenchResult) RequestsPerSecond() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Requests-r.Errors) / r.TotalTime.Seconds()
}

// TransferRateMBps is payload moved per second.
func (r HTTPBenchResult) TransferRateMBps() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.TotalTime.Seconds() / 1e6
}

// RunHTTPBench drives totalRequests requests from concurrency LAN clients
// against the guest's HTTP server and blocks until they complete. The
// caller must have started the server with StartHTTPServer.
func (vm *VM) RunHTTPBench(p *sim.Proc, totalRequests, concurrency, pageBytes int) HTTPBenchResult {
	env := vm.H.Env
	res := HTTPBenchResult{Requests: totalRequests, Concurrency: concurrency}

	// Response dispatch: TxSink routes each transmitted response to the
	// waiting client by sequence number.
	waiters := make(map[int64]*sim.Chan[int])
	prevSink := vm.NetB.TxSink
	vm.NetB.TxSink = func(g xtypes.DomID, pkt netdrv.Packet) {
		if prevSink != nil {
			prevSink(g, pkt)
		}
		if g != vm.Dom {
			return
		}
		if ch, ok := waiters[pkt.Seq]; ok {
			ch.Send(pkt.Bytes)
		}
	}
	defer func() { vm.NetB.TxSink = prevSink }()

	remaining := totalRequests
	var nextSeq int64
	done := sim.NewChan[struct{}](env)

	// synRTO is Linux's initial SYN retransmission timeout (3s in the
	// 2.6-series kernels of the paper's era): a connection attempt whose SYN
	// lands in a NetBack outage stalls for 3 seconds (then 6) — the source
	// of the paper's 3000–7000ms outliers. Most requests caught by an outage
	// are mid-connection, though: the NIC's DMA state survives the
	// microreboot, so their segments recover on the ordinary data-RTO chain;
	// only the fraction at connection establishment pays the SYN timeout.
	const synRTO = 3 * sim.Second
	const synLossFraction = 0.8

	client := func(cp *sim.Proc) {
		// One response channel serves all of the client's requests. A
		// duplicate response (the server answering a retransmit too) can
		// still sit in it after its request completed; draining it before
		// the next request registers makes it as empty as a fresh one, and
		// no response reaches it for a seq already removed from waiters.
		respCh := sim.NewChan[int](env)
		for remaining > 0 {
			remaining--
			nextSeq++
			seq := nextSeq
			for {
				if _, ok := respCh.TryRecv(); !ok {
					break
				}
			}
			waiters[seq] = respCh
			start := cp.Now()
			dataRTO := rtoInitial
			connRTO := synRTO
			attempts := 0
			for {
				if vm.NetB.WireDeliver(cp, vm.Dom, requestBytes, seq) {
					// Connection established; wait for the response with
					// ordinary data-RTO retransmission.
					if n, ok := respCh.RecvTimeout(cp, dataRTO); ok {
						res.Bytes += int64(n)
						break
					}
					dataRTO *= 2
					if dataRTO > rtoMax {
						dataRTO = rtoMax
					}
				} else if env.Rand().Float64() < synLossFraction {
					// SYN lost: long connection-establishment backoff.
					cp.Sleep(connRTO)
					connRTO *= 2
				} else {
					// Segment lost mid-connection: ordinary retransmission.
					cp.Sleep(dataRTO)
					dataRTO *= 2
					if dataRTO > rtoMax {
						dataRTO = rtoMax
					}
				}
				attempts++
				if attempts > 8 {
					res.Errors++
					break
				}
			}
			delete(waiters, seq)
			lat := cp.Now().Sub(start)
			if lat > res.MaxLatency {
				res.MaxLatency = lat
			}
		}
		done.Send(struct{}{})
	}

	start := p.Now()
	for i := 0; i < concurrency; i++ {
		env.Spawn(fmt.Sprintf("ab-client-%d", i), client)
	}
	for i := 0; i < concurrency; i++ {
		done.Recv(p)
	}
	res.TotalTime = p.Now().Sub(start)
	if n := res.Requests - res.Errors; n > 0 {
		res.MeanLatency = sim.Duration(int64(res.TotalTime) * int64(concurrency) / int64(n))
	}
	return res
}
