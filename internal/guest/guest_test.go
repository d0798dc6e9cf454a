package guest

import (
	"slices"
	"testing"

	"xoar/internal/boot"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/netdrv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

// platform boots Xoar and creates one PV guest with net+disk.
func platform(t *testing.T) (*sim.Env, *boot.Platform, *VM) {
	t.Helper()
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	pl, err := boot.Run(h, false, boot.Options{})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	var g *toolstack.Guest
	if !env.Await("setup", 120*sim.Second, func(p *sim.Proc) {
		g, err = pl.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
			Name: "guest", Image: osimage.ImgGuestPV, VCPUs: 2, Net: true, Disk: true,
		})
	}) {
		t.Fatal("setup incomplete")
	}
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return env, pl, &VM{H: h, Dom: g.Dom, Net: g.Net, Blk: g.Blk, NetB: g.NetB, BlkB: g.BlkB}
}

func TestFetchToNullNearLineRate(t *testing.T) {
	env, _, vm := platform(t)
	var res FetchResult
	env.Spawn("wget", func(p *sim.Proc) {
		res = vm.Fetch(p, 512<<20, SinkNull)
	})
	env.RunFor(60 * sim.Second)
	env.Shutdown()
	if res.Bytes < 512<<20 {
		t.Fatalf("fetched %d", res.Bytes)
	}
	if got := res.ThroughputMBps(); got < 105 || got > 120 {
		t.Fatalf("throughput = %.1f MB/s", got)
	}
	if res.Stalls != 0 {
		t.Fatalf("stalls on idle platform: %d", res.Stalls)
	}
}

func TestFetchToDiskBoundByDisk(t *testing.T) {
	env, _, vm := platform(t)
	var res FetchResult
	env.Spawn("wget", func(p *sim.Proc) {
		res = vm.Fetch(p, 256<<20, SinkDisk)
	})
	env.RunFor(60 * sim.Second)
	env.Shutdown()
	got := res.ThroughputMBps()
	// The 110MB/s disk is the bottleneck; allow pipeline slack.
	if got < 85 || got > 112 {
		t.Fatalf("to-disk throughput = %.1f MB/s", got)
	}
}

func TestFetchAcrossRestartsLosesThroughput(t *testing.T) {
	env, pl, vm := platform(t)
	nb := pl.NetBacks[0]
	if err := pl.Builder.SetRestartPolicy(nb, snapshot.Policy{Kind: snapshot.PolicyTimer, Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	var res FetchResult
	env.Spawn("wget", func(p *sim.Proc) {
		res = vm.Fetch(p, 512<<20, SinkNull)
	})
	env.RunFor(300 * sim.Second)
	env.Shutdown()
	if res.Bytes < 512<<20 {
		t.Fatalf("transfer did not complete: %d bytes", res.Bytes)
	}
	got := res.ThroughputMBps()
	// Figure 6.3: 1s restarts cost over half the throughput.
	if got > 70 {
		t.Fatalf("throughput with 1s restarts = %.1f MB/s, expected heavy loss", got)
	}
	if res.Stalls == 0 || res.Retransmits == 0 {
		t.Fatalf("no TCP recovery observed: %+v", res)
	}
}

func TestHTTPBenchBaseline(t *testing.T) {
	env, _, vm := platform(t)
	var res HTTPBenchResult
	env.Spawn("ab", func(p *sim.Proc) {
		srv := vm.StartHTTPServer(11 * 1024)
		defer srv.Stop()
		res = vm.RunHTTPBench(p, 5000, 5, 11*1024)
	})
	env.RunFor(120 * sim.Second)
	env.Shutdown()
	rps := res.RequestsPerSecond()
	if rps < 2500 || rps > 4200 {
		t.Fatalf("req/s = %.0f", rps)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// No restarts: worst request under ~20ms.
	if res.MaxLatency > 20*sim.Millisecond {
		t.Fatalf("max latency = %v", res.MaxLatency)
	}
}

func TestHTTPBenchWithRestartsShowsTails(t *testing.T) {
	env, pl, vm := platform(t)
	if err := pl.Builder.SetRestartPolicy(pl.NetBacks[0], snapshot.Policy{Kind: snapshot.PolicyTimer, Interval: 2 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	var res HTTPBenchResult
	env.Spawn("ab", func(p *sim.Proc) {
		srv := vm.StartHTTPServer(11 * 1024)
		defer srv.Stop()
		res = vm.RunHTTPBench(p, 15000, 5, 11*1024)
	})
	env.RunFor(300 * sim.Second)
	env.Shutdown()
	if res.MaxLatency < 500*sim.Millisecond {
		t.Fatalf("max latency = %v, expected an RTO-driven outlier", res.MaxLatency)
	}
	if res.RequestsPerSecond() > 3200 {
		t.Fatalf("restarts did not reduce throughput: %.0f req/s", res.RequestsPerSecond())
	}
}

func TestNetRPC(t *testing.T) {
	env, _, vm := platform(t)
	var ok bool
	var elapsed sim.Duration
	env.Spawn("rpc", func(p *sim.Proc) {
		t0 := p.Now()
		ok = vm.NetRPC(p, 256, 8192, 250*sim.Microsecond)
		elapsed = p.Now().Sub(t0)
	})
	env.RunFor(10 * sim.Second)
	env.Shutdown()
	if !ok {
		t.Fatal("rpc failed on idle platform")
	}
	if elapsed < 250*sim.Microsecond || elapsed > 5*sim.Millisecond {
		t.Fatalf("rpc latency = %v", elapsed)
	}
}

// NetRPC numbers its flows per VM: the flow keys a VM's calls carry, which
// pick the ring on a multi-queue vif, must not depend on the NetRPCs that
// other VMs ran earlier in the same process. Two identical rigs therefore
// put identical sequence numbers on the wire.
func TestNetRPCSeqPerVM(t *testing.T) {
	const calls = 3
	wireSeqs := func() []int64 {
		env, _, vm := platform(t)
		defer env.Shutdown()
		var seqs []int64
		vm.NetB.TxSink = func(g xtypes.DomID, pkt netdrv.Packet) {
			if g == vm.Dom {
				seqs = append(seqs, pkt.Seq)
			}
		}
		env.Spawn("rpc", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				if !vm.NetRPC(p, 256, 1024, 100*sim.Microsecond) {
					t.Errorf("rpc %d failed on idle platform", i)
				}
			}
		})
		env.RunFor(10 * sim.Second)
		return seqs
	}
	first, second := wireSeqs(), wireSeqs()
	if len(first) != calls || !slices.Equal(first, second) {
		t.Fatalf("identical rigs put different flows on the wire: %v vs %v", first, second)
	}
}
