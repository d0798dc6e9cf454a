package xoar

// The benchmarks below regenerate every table and figure in the paper's
// evaluation section (§6), one benchmark per artifact, plus ablations for
// the design choices DESIGN.md calls out. Each iteration runs the full
// experiment on a fresh simulated platform; the reported custom metrics are
// the figures' own units (MB/s, req/s, seconds, ops/s), with the paper's
// values recorded in EXPERIMENTS.md.
//
// The workloads run at a reduced scale to keep `go test -bench=.` quick;
// cmd/xoarbench runs them at the paper's full scale.

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"xoar/internal/attack"
	"xoar/internal/core"
	"xoar/internal/experiments"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/ring"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// benchScale keeps the -bench=. sweep fast; xoarbench uses 1.0.
const benchScale = 0.05

func findRow(b *testing.B, t experiments.Table, label string) experiments.Row {
	b.Helper()
	for _, r := range t.Rows {
		if r.Label == label {
			return r
		}
	}
	b.Fatalf("row %q missing from %s", label, t.ID)
	return experiments.Row{}
}

// BenchmarkTable61_Memory regenerates Table 6.1: per-shard memory.
func BenchmarkTable61_Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.MemoryOverhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "total (full config)").Measured, "MB-total")
		b.ReportMetric(findRow(b, t, "netback").Measured, "MB-netback")
	}
}

// BenchmarkTable62_Boot regenerates Table 6.2: boot-time comparison.
func BenchmarkTable62_Boot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.BootTime()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "console speedup").Measured, "x-console")
		b.ReportMetric(findRow(b, t, "ping speedup").Measured, "x-ping")
	}
}

// BenchmarkBootPipeline measures the SubmitAll build pipeline: makespan of
// an 8-guest fleet built serially (8 Submits) vs as one pipelined batch
// (construct of guest i+1 overlapped with the supervised boot of guest i).
// The pipelined makespan must be strictly below the serial sum — this is
// the metric BENCH_baseline.json gates in CI.
func BenchmarkBootPipeline(b *testing.B) {
	const fleet = 8
	for i := 0; i < b.N; i++ {
		t, err := experiments.BootPipeline(fleet)
		if err != nil {
			b.Fatal(err)
		}
		serial := findRow(b, t, "serial Submit makespan").Measured
		pipelined := findRow(b, t, "pipelined SubmitAll makespan").Measured
		if pipelined >= serial {
			b.Fatalf("pipelined makespan %.3fs not below serial %.3fs", pipelined, serial)
		}
		b.ReportMetric(serial, "s-serial")
		b.ReportMetric(pipelined, "s-pipelined")
		b.ReportMetric(serial/pipelined, "x-speedup")
		b.ReportMetric(findRow(b, t, "construct overlap reclaimed").Measured, "ms-reclaimed")
	}
}

// BenchmarkFig61_Postmark regenerates Figure 6.1: Postmark disk throughput.
func BenchmarkFig61_Postmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Postmark(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		// Row labels carry the scaled transaction count; the first pair is
		// always the 1K-file config on dom0 then xoar.
		b.ReportMetric(t.Rows[0].Measured, "ops/s-dom0")
		b.ReportMetric(t.Rows[1].Measured, "ops/s-xoar")
	}
}

// BenchmarkFig62_Wget regenerates Figure 6.2: wget network throughput.
func BenchmarkFig62_Wget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Wget(experiments.Scale(0.1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "/dev/null (2GB) xoar").Measured, "MB/s-null")
		b.ReportMetric(findRow(b, t, "disk (2GB) xoar").Measured, "MB/s-disk")
		b.ReportMetric(findRow(b, t, "disk (2GB) dom0").Measured, "MB/s-disk-dom0")
	}
}

// BenchmarkFig63_Restarts regenerates Figure 6.3: throughput vs NetBack
// restart interval, slow and fast modes.
func BenchmarkFig63_Restarts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, pts, err := experiments.RestartThroughput(1, []int{1, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		base := findRow(b, t, "baseline (no restarts)").Measured
		b.ReportMetric(base, "MB/s-baseline")
		for _, p := range pts {
			if p.IntervalSec == 1 && !p.Fast {
				b.ReportMetric(p.MBps, "MB/s-slow-1s")
			}
			if p.IntervalSec == 10 && !p.Fast {
				b.ReportMetric(p.MBps, "MB/s-slow-10s")
			}
			if p.IntervalSec == 1 && p.Fast {
				b.ReportMetric(p.MBps, "MB/s-fast-1s")
			}
		}
	}
}

// BenchmarkFig64_KernelBuild regenerates Figure 6.4: kernel build, local and
// NFS, with and without restarts.
func BenchmarkFig64_KernelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.KernelBuild(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "xoar (local)").Measured, "s-local")
		b.ReportMetric(findRow(b, t, "xoar (nfs)").Measured, "s-nfs")
		b.ReportMetric(findRow(b, t, "xoar (nfs, restarts 5s)").Measured, "s-nfs-r5")
	}
}

// BenchmarkFig65_Apache regenerates Figure 6.5: the Apache benchmark across
// profiles and restart intervals.
func BenchmarkFig65_Apache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Apache(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "dom0 throughput").Measured, "req/s-dom0")
		b.ReportMetric(findRow(b, t, "xoar throughput").Measured, "req/s-xoar")
		b.ReportMetric(findRow(b, t, "restarts 1s throughput").Measured, "req/s-r1")
	}
}

// BenchmarkSec_TCB regenerates the §6.2 TCB-size comparison.
func BenchmarkSec_TCB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TCBSize()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "xoar source LoC").Measured, "LoC-xoar")
		b.ReportMetric(findRow(b, t, "dom0 source LoC").Measured, "LoC-dom0")
	}
}

// BenchmarkSec_Attacks regenerates the §6.2.1 known-attack containment study.
func BenchmarkSec_Attacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.KnownAttacks()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "xoar contained").Measured, "contained")
		b.ReportMetric(findRow(b, t, "xoar whole-host").Measured, "whole-host")
		b.ReportMetric(findRow(b, t, "dom0 whole-host").Measured, "whole-host-dom0")
	}
}

// BenchmarkSec_AttackTaxonomy regenerates the §2.3 attack-taxonomy replay
// and reports the cross-scenario aggregates the baseline gates: total calls
// attempted and denied, oracle escalations (pinned at zero), and the summed
// blast radius with and without the microreboot bound.
func BenchmarkSec_AttackTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AttackTaxonomy()
		if err != nil {
			b.Fatal(err)
		}
		sum := func(suffix string) float64 {
			total := 0.0
			for _, r := range t.Rows {
				if strings.HasSuffix(r.Label, suffix) {
					total += r.Measured
				}
			}
			return total
		}
		b.ReportMetric(sum(": calls attempted"), "attack-attempted")
		b.ReportMetric(sum(": calls denied"), "attack-denied")
		b.ReportMetric(sum(": escalations"), "attack-escalations")
		b.ReportMetric(sum(": exposed guests (microreboot)"), "exposed-with-mr")
		b.ReportMetric(sum(": exposed guests (no microreboot)"), "exposed-no-mr")
	}
}

// --- Ablation benchmarks ------------------------------------------------------

// BenchmarkAblations regenerates the design-choice ablations DESIGN.md calls
// out: parallel vs serialized boot (Table 6.2), PCIBack self-destruction
// (§5.3), recovery-box vs renegotiating NetBack restarts (Figure 6.3) and
// the XenStore Logic/State split (§5.1).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "full boot, parallel (Bootstrapper)").Measured, "s-parallel")
		b.ReportMetric(findRow(b, t, "full boot, serialized (ablated)").Measured, "s-serialized")
		b.ReportMetric(findRow(b, t, "control domains, PCIBack resident").Measured, "components-resident")
		b.ReportMetric(findRow(b, t, "control domains, PCIBack destroyed (§5.3)").Measured, "components-destroyed")
		b.ReportMetric(findRow(b, t, "NetBack restart downtime, renegotiate (slow)").Measured, "ms-slow")
		b.ReportMetric(findRow(b, t, "NetBack restart downtime, recovery box (fast)").Measured, "ms-fast")
		b.ReportMetric(findRow(b, t, "XenStore-Logic microreboots survived").Measured, "xs-restarts")
	}
}

// BenchmarkMicro_GrantMap measures the grant-table map/unmap fast path.
// Steady-state allocs/op is gated exactly in BENCH_baseline.json; the
// warm-up loop gets first-use map growth out of the timed region so the
// gate holds at -benchtime=1x.
func BenchmarkMicro_GrantMap(b *testing.B) {
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	shard, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "s", MemMB: 64, Shard: true})
	h.Unpause(hv.SystemCaller, shard.ID)
	g, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "g", MemMB: 64})
	h.Unpause(hv.SystemCaller, g.ID)
	ref, err := h.Grant(g.ID, shard.ID, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		m, err := h.MapGrant(shard.ID, g.ID, ref, false)
		if err != nil {
			b.Fatal(err)
		}
		m.Unmap()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := h.MapGrant(shard.ID, g.ID, ref, false)
		if err != nil {
			b.Fatal(err)
		}
		m.Unmap()
	}
}

// BenchmarkMicro_GuestLifecycle measures one micro guest's create and
// destroy through the Toolstack on a booted Xoar host: the Builder queue,
// domain construction, XenStore registration and the whole teardown, which
// is the per-guest cost of the fleet-churn workload. allocs/op and B/op are
// gated exactly in BENCH_baseline.json; the warm-up cycles grow every map
// and free list first, so the gate holds at -benchtime=1x.
func BenchmarkMicro_GuestLifecycle(b *testing.B) {
	benchGuestLifecycle(b, toolstack.GuestConfig{Name: "micro", Image: osimage.ImgGuestMicro, MemMB: 64})
}

// BenchmarkMicro_DeviceLifecycle is the guest lifecycle with a vif and a
// vbd attached: one op adds a vif handshake, a vbd handshake and their
// teardown to the micro guest's create and destroy. allocs/op and B/op are
// gated exactly, like the lifecycle without devices.
func BenchmarkMicro_DeviceLifecycle(b *testing.B) {
	benchGuestLifecycle(b, toolstack.GuestConfig{Name: "micro", Image: osimage.ImgGuestMicro, MemMB: 64, Net: true, Disk: true, DiskMB: 64})
}

// benchGuestLifecycle creates and destroys a guest of cfg once per op, after
// 300 warm-up cycles, on a warmed-up Xoar host.
func benchGuestLifecycle(b *testing.B, cfg toolstack.GuestConfig) {
	cycles := guestLifecycleRig(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	cycles(b.N)
}

// guestLifecycleRig boots a Xoar host, runs 300 warm-up cycles of creating
// and destroying a guest of cfg through its first toolstack, and returns the
// loop that runs n more cycles. The host is shut down at tb's cleanup.
func guestLifecycleRig(tb testing.TB, cfg toolstack.GuestConfig) (cycles func(n int)) {
	rig, err := experiments.BootRig(experiments.Xoar, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rig.Close)
	ts := rig.PL.Toolstacks[0]
	cycles = func(n int) {
		if err := rig.Go(sim.Duration(n)*sim.Second, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				g, err := ts.CreateVM(p, cfg)
				if err != nil {
					tb.Fatal(err)
				}
				if err := ts.DestroyVM(p, g.Dom); err != nil {
					tb.Fatal(err)
				}
			}
		}); err != nil {
			tb.Fatal(err)
		}
	}
	cycles(300)
	return cycles
}

// TestGuestLifecycleRetainsNothing checks that a guest's create and destroy
// leave nothing behind on the host: over three rounds of 4000 micro-guest
// cycles after the warm-up, the live heap of the smallest round may grow by
// less than 16 KB, about 4 B per guest. A Builder that kept every guest's
// build record, or a XenStore that kept a zero quota count per dead domain,
// grew it by hundreds of kilobytes per round.
func TestGuestLifecycleRetainsNothing(t *testing.T) {
	// No vif or vbd: their handshakes bind backend event-channel ports that
	// nothing closes yet, about 200 B of live heap per cycle.
	cycles := guestLifecycleRig(t, toolstack.GuestConfig{Name: "micro", Image: osimage.ImgGuestMicro, MemMB: 64})
	var ms runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const rounds, perRound, limit = 3, 4000, 16 << 10
	growth := make([]int64, rounds)
	for i := range growth {
		before := liveHeap()
		cycles(perRound)
		growth[i] = liveHeap() - before
	}
	t.Logf("live-heap growth per round of %d guests: %v B", perRound, growth)
	if least := slices.Min(growth); least >= limit {
		t.Fatalf("live heap grew %v bytes per round of %d guests (least %d B, %d B per guest); want under %d B",
			growth, perRound, least, least/perRound, limit)
	}
}

// BenchmarkMicro_XenStoreWrite measures the XenStore write path including
// watch fan-out. Steady-state allocs/op is gated exactly in
// BENCH_baseline.json; the warm-up loop creates the node and grows the
// event queue before the timed region so the gate holds at -benchtime=1x.
func BenchmarkMicro_XenStoreWrite(b *testing.B) {
	env := sim.NewEnv(1)
	logic := xenstore.NewLogic(env, xenstore.NewState())
	c := logic.Connect(0, true)
	c.Watch("/bench", "tok")
	for i := 0; i < 64; i++ {
		if err := c.Write(xenstore.TxNone, "/bench/key", "v"); err != nil {
			b.Fatal(err)
		}
		c.Events.TryRecv()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(xenstore.TxNone, "/bench/key", "v"); err != nil {
			b.Fatal(err)
		}
		c.Events.TryRecv()
	}
}

// BenchmarkFeature_LiveMigration measures pre-copy migration of a guest with
// a ~200MB working set between two hosts: total time and blackout.
func BenchmarkFeature_LiveMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hosts, err := core.NewCluster(core.XoarShards, core.Config{Seed: 21}, 2)
		if err != nil {
			b.Fatal(err)
		}
		src, dst := hosts[0], hosts[1]
		g, err := src.CreateGuest(core.GuestSpec{Name: "m", VCPUs: 2, Net: true, Disk: true})
		if err != nil {
			b.Fatal(err)
		}
		d, _ := src.HV.Domain(g.Dom)
		for pfn := 0; pfn < 50000; pfn++ {
			d.Mem.Write(xtypes.PFN(pfn), []byte{byte(pfn)})
		}
		res, err := src.MigrateGuest(g, dst)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats.TotalTime.Seconds(), "s-total")
		b.ReportMetric(res.Stats.Downtime.Seconds()*1000, "ms-blackout")
		src.Shutdown()
	}
}

// BenchmarkFeature_PageSharing measures a same-page-sharing scan across a
// densely packed host and the headroom it reclaims.
func BenchmarkFeature_PageSharing(b *testing.B) {
	pl, err := core.New(core.XoarShards, core.Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer pl.Shutdown()
	// Three guests booted from the same image share most of their pages.
	zero := make([]byte, 1024)
	for i := 0; i < 3; i++ {
		g, err := pl.CreateGuest(core.GuestSpec{Name: "tenant" + string(rune('a'+i)), MemMB: 512})
		if err != nil {
			b.Fatal(err)
		}
		d, _ := pl.HV.Domain(g.Dom)
		for pfn := 0; pfn < 20000; pfn++ {
			d.Mem.Write(xtypes.PFN(pfn), zero)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pl.DedupScan()
		b.ReportMetric(float64(st.SavedPages), "pages-saved")
	}
}

// BenchmarkDataPath_TxBatching measures transmit descriptors serviced per
// NetBack wakeup at saturation: the req_event/rsp_event suppression protocol
// versus the notify-per-descriptor ablation. The gated invariant is the
// batching win itself — at least 4 descriptors per wakeup.
func BenchmarkDataPath_TxBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TxBatching(200)
		if err != nil {
			b.Fatal(err)
		}
		sup := findRow(b, t, "descs/wakeup (suppressed)").Measured
		abl := findRow(b, t, "descs/wakeup (always-notify)").Measured
		if sup < 4*abl {
			b.Fatalf("suppression services %.1f descs/wakeup vs %.1f ablated; want >= 4x", sup, abl)
		}
		b.ReportMetric(sup, "descs-wakeup")
		b.ReportMetric(findRow(b, t, "amortization").Measured, "x-amortized")
	}
}

// BenchmarkDataPath_Saturation10G reruns the Figure 6.2-style bulk transfer
// on a 10GbE machine: with batched rings the NetBack shard must saturate the
// faster wire just like dom0 (overhead within noise).
func BenchmarkDataPath_Saturation10G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.Saturation(experiments.Scale(0.1), []hw.NICModel{hw.NICModel10G})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "ixgbe dom0").Measured, "MB/s-dom0")
		b.ReportMetric(findRow(b, t, "ixgbe xoar").Measured, "MB/s-xoar")
		b.ReportMetric(findRow(b, t, "ixgbe shard overhead").Measured, "pct-overhead")
	}
}

// BenchmarkMicro_SimEventsPerSec measures the simulator's event loop under a
// steady wakeup load: 64 ticker processes sleeping 1ms each, 640 scheduled
// events per iteration. With the event free list, recycled timers and the
// coroutine switch between scheduler and process, the steady-state loop
// must stay allocation-free — allocs/op and B/op are gated at zero;
// events/op pins the deterministic event count, and evts/s reports raw
// wall-clock throughput (ungated).
func BenchmarkMicro_SimEventsPerSec(b *testing.B) {
	env := sim.NewEnv(1)
	const tickers = 64
	events := 0
	for i := 0; i < tickers; i++ {
		env.Spawn("tick", func(p *sim.Proc) {
			for {
				p.Sleep(sim.Millisecond)
				events++
			}
		})
	}
	// Warm up: let the free list and the run queue reach steady state, and
	// churn some cancels through the stale-compaction path.
	for i := 0; i < 200; i++ {
		cancel := env.After(10*sim.Second, func() {})
		cancel()
	}
	env.RunFor(100 * sim.Millisecond)
	events = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunFor(10 * sim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "evts/s")
	}
	env.Shutdown()
}

// BenchmarkMicro_SimWakeups measures the event loop under same-instant
// wakeups, the shape Signal.Broadcast gives the data path: 8 groups, each a
// ticker that sleeps 1ms and then broadcasts to 7 waiters, so 56 of every 64
// events are due at the instant they are scheduled. Like SimEventsPerSec it
// gates allocs/op and B/op at zero and pins events/op (640); evts/s reports
// raw wall-clock throughput (ungated).
func BenchmarkMicro_SimWakeups(b *testing.B) {
	env := sim.NewEnv(1)
	const groups, waiters = 8, 7
	events := 0
	for g := 0; g < groups; g++ {
		sig := sim.NewSignal(env)
		for w := 0; w < waiters; w++ {
			env.Spawn("waiter", func(p *sim.Proc) {
				for {
					sig.Wait(p)
					events++
				}
			})
		}
		env.Spawn("tick", func(p *sim.Proc) {
			for {
				p.Sleep(sim.Millisecond)
				events++
				sig.Broadcast()
			}
		})
	}
	env.RunFor(100 * sim.Millisecond)
	events = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunFor(10 * sim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "evts/s")
	}
	env.Shutdown()
}

// BenchmarkMicro_SimHandoff measures the event loop on the data path's
// shape: a frontend and a backend process hand each request and its response
// to each other through a Chan, and each side holds its own Resource for
// 1µs of work per request, so every wakeup is either the running process's
// own or a handoff to the other. One round trip is four wakeups over 2µs of
// virtual time; 160 round trips per op make 640 events/op. Like
// SimEventsPerSec it gates allocs/op and B/op at zero and pins events/op;
// evts/s reports raw wall-clock throughput (ungated).
func BenchmarkMicro_SimHandoff(b *testing.B) {
	env := sim.NewEnv(1)
	reqs, resps := sim.NewChan[int](env), sim.NewChan[int](env)
	front, back := sim.NewResource(env, 1), sim.NewResource(env, 1)
	events := 0
	env.Spawn("frontend", func(p *sim.Proc) {
		for i := 0; ; i++ {
			front.Use(p, sim.Microsecond)
			events++
			reqs.Send(i)
			resps.Recv(p)
			events++
		}
	})
	env.Spawn("backend", func(p *sim.Proc) {
		for {
			v, _ := reqs.Recv(p)
			events++
			back.Use(p, sim.Microsecond)
			events++
			resps.Send(v)
		}
	})
	env.RunFor(100 * sim.Microsecond)
	events = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunFor(320 * sim.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "evts/s")
	}
	env.Shutdown()
}

// BenchmarkMicro_SimContention measures the event loop under the contention
// of web's HTTP run, where a release or a send wakes waiters that find the
// slot or the item already taken. In a closed loop, 5 clients share a
// Resource of capacity 2, as the ab clients share the NIC and the httpd
// processes the guest's vCPUs: each holds a slot for 1µs, then sends a
// request on a Chan shared by 4 workers, as httpd's workers share its work
// queue, and waits for the response on its own Chan. A worker takes a
// request, works 1µs and responds. events/op counts what the process bodies
// see, 4 per request (the slot acquired, the request taken, the work done,
// the response received), pinned exactly; the wakeups that only wait again
// are not among them. Like SimHandoff it gates allocs/op and B/op at zero;
// evts/s reports raw wall-clock throughput (ungated).
func BenchmarkMicro_SimContention(b *testing.B) {
	env := sim.NewEnv(1)
	const clients, workers = 5, 4
	slots := sim.NewResource(env, 2)
	work := sim.NewChan[int](env)
	var resps [clients]*sim.Chan[int]
	events := 0
	for i := range resps {
		resps[i] = sim.NewChan[int](env)
		env.Spawn("client", func(p *sim.Proc) {
			for {
				slots.Use(p, sim.Microsecond)
				events++
				work.Send(i)
				resps[i].Recv(p)
				events++
			}
		})
	}
	for w := 0; w < workers; w++ {
		env.Spawn("worker", func(p *sim.Proc) {
			for {
				i, _ := work.Recv(p)
				events++
				p.Sleep(sim.Microsecond)
				events++
				resps[i].Send(i)
			}
		})
	}
	env.RunFor(100 * sim.Microsecond)
	events = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunFor(100 * sim.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "evts/s")
	}
	env.Shutdown()
}

// BenchmarkClusterChurn runs the cluster serverless-churn artifact at full
// scale: an 8-host fleet, 5000 micro guests at 1000 arrivals/s. Cold-start
// percentiles, failure and migration counts, and placement spread are all
// deterministic and gated in BENCH_baseline.json.
func BenchmarkClusterChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ClusterChurn(experiments.DefaultClusterChurnConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findRow(b, t, "cold-start p50").Measured, "ms-p50")
		b.ReportMetric(findRow(b, t, "cold-start p95").Measured, "ms-p95")
		b.ReportMetric(findRow(b, t, "cold-start p99").Measured, "ms-p99")
		b.ReportMetric(findRow(b, t, "launched").Measured, "launched")
		b.ReportMetric(findRow(b, t, "failed").Measured, "failed")
		b.ReportMetric(findRow(b, t, "placement spread").Measured, "spread")
		b.ReportMetric(findRow(b, t, "rebalance migrations").Measured, "migrations")
	}
}

// BenchmarkMicro_RingBatchPop measures the batched ring transfer fast path:
// a full-ring push and drain per iteration. The hot pump path must stay
// allocation-free — allocs/op is gated at zero.
func BenchmarkMicro_RingBatchPop(b *testing.B) {
	env := sim.NewEnv(1)
	r := ring.New[int, int](env, ring.DefaultSlots)
	reqs := make([]int, ring.DefaultSlots)
	acks := make([]int, ring.DefaultSlots)
	buf := make([]int, ring.DefaultSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.TryPushRequestBatch(reqs) != len(reqs) {
			b.Fatal("push stalled")
		}
		n := r.TryPopRequestBatch(buf)
		if n != len(reqs) {
			b.Fatalf("popped %d", n)
		}
		if err := r.PushResponseBatch(acks[:n]); err != nil {
			b.Fatal(err)
		}
		if got := r.TryPopResponseBatch(buf); got != n {
			b.Fatalf("acked %d", got)
		}
	}
}

// BenchmarkMicro_AuditVerify re-verifies the audit hash chain of one
// fuzz exec: a booted attack harness plus one generated hostile sequence,
// close to the fuzz loop's mean of 87 records. Each iteration first writes
// record 0's own Arg back with Tamper, which leaves the chain intact but
// lowers Verify's verified prefix to 0, so Verify re-hashes every record,
// as it does for a log LoadLog reads. The attack oracle's Verify after each
// hypercall hashes each record once through the same loop, so Verify must
// stay allocation-free — allocs/op and B/op are gated at zero; records
// reports the chain length (ungated).
func BenchmarkMicro_AuditVerify(b *testing.B) {
	ha, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	ha.Run(attack.Generate(1))
	ha.Close()
	log := ha.Log
	if i := log.Verify(); i != -1 {
		b.Fatalf("audit chain breaks at record %d", i)
	}
	arg0 := log.Records()[0].Arg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Tamper(0, arg0)
		if log.Verify() != -1 {
			b.Fatal("audit chain broke")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(log.Len()), "records")
}
