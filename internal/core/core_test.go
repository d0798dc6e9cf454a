package core

import (
	"errors"
	"testing"

	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/workload"
	"xoar/internal/xtypes"
)

func TestNewXoarPlatform(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	comps := pl.Components()
	names := map[string]bool{}
	for _, c := range comps {
		names[c.Name] = true
		if !c.Shard {
			t.Errorf("non-shard control component %s", c.Name)
		}
	}
	for _, want := range []string{"xenstore-logic", "xenstore-state", "console", "builder", "pciback", "netback", "blkback", "toolstack-0"} {
		if !names[want] {
			t.Errorf("missing component %s (have %v)", want, names)
		}
	}
}

func TestGuestLifecycleAndConsole(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(GuestSpec{Name: "web", Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteConsole("hello from dom" + "X"); err != nil {
		t.Fatal(err)
	}
	pl.Advance(sim.Second)
	if buf := g.ConsoleBuffer(); len(buf) != 1 {
		t.Fatalf("console buffer = %v", buf)
	}
	if err := pl.DestroyGuest(g); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.HV.Domain(g.Dom); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatal("guest survived destroy")
	}
}

func TestWorkloadHelpers(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(GuestSpec{Name: "bench", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Fetch(64<<20, guest.SinkNull)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMBps() < 100 {
		t.Fatalf("fetch = %.1f MB/s", res.ThroughputMBps())
	}
	pm, err := g.Postmark(workload.PostmarkConfig{Files: 1000, Transactions: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if pm.OpsPerSec <= 0 {
		t.Fatal("postmark produced nothing")
	}
}

func TestRestartPolicyThroughCore(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	pl.Advance(5 * sim.Second)
	st, ok := pl.RestartStats(pl.Boot.NetBacks[0].Dom)
	if !ok || st.Restarts < 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("restart errors = %d", st.Errors)
	}
	// Re-tune to fast restarts; stats persist.
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{Interval: sim.Second, Fast: true}); err != nil {
		t.Fatal(err)
	}
	pl.Advance(3 * sim.Second)
	st2, _ := pl.RestartStats(pl.Boot.NetBacks[0].Dom)
	if st2.Restarts <= st.Restarts {
		t.Fatal("policy change stopped restarts")
	}
	// Disable.
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{}); err != nil {
		t.Fatal(err)
	}
	if st3, managed := pl.RestartStats(pl.Boot.NetBacks[0].Dom); managed {
		t.Fatal("still managed after disable:", st3)
	}
}

func TestRestartPolicyRefusedOnDom0(t *testing.T) {
	pl, err := New(MonolithicDom0, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{Interval: sim.Second}); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("dom0 restart policy: %v", err)
	}
}

// The restart engine is the Builder's and honours its whitelist: with
// set_restart_policy revoked from the Builder, no shard can be put under a
// policy through the platform facade.
func TestRestartPolicyNeedsBuilderWhitelist(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.HV.RevokeHypercall(hv.SystemCaller, pl.Boot.BuilderDom, xtypes.HyperSetRestartPolicy); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{Interval: sim.Second}); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("netback restart policy with set_restart_policy revoked: %v", err)
	}
	if err := pl.SetBlkBackRestartPolicy(RestartPolicy{Interval: sim.Second}); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("blkback restart policy with set_restart_policy revoked: %v", err)
	}
	if _, managed := pl.RestartStats(pl.Boot.NetBacks[0].Dom); managed {
		t.Fatal("netback managed without set_restart_policy")
	}
}

// A rebuilt shard's restart policy goes with the old domain: it is no
// longer managed and its restart timer stops firing.
func TestRebuildReleasesRestartPolicy(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	old := pl.Boot.NetBacks[0].Dom
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	var rerr error
	if err := pl.RunWorkload(60*sim.Second, func(p *sim.Proc) {
		_, rerr = pl.Boot.Builder.Rebuild(p, old)
	}); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatalf("rebuild: %v", rerr)
	}
	if _, managed := pl.RestartStats(old); managed {
		t.Fatal("rebuilt netback's old domain is still managed")
	}
	fired := 0
	pl.Env.SetTrace(func(ev sim.TraceEvent) {
		if ev.Kind == "resume" && ev.Proc == "restart-timer-netback" {
			fired++
		}
	})
	pl.Advance(5 * sim.Second)
	pl.Env.SetTrace(nil)
	if fired != 0 {
		t.Fatalf("old netback's restart timer fired %d times after the rebuild", fired)
	}
}

func TestAuditForensics(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	g1, err := pl.CreateGuest(GuestSpec{Name: "t1", Net: true})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := pl.CreateGuest(GuestSpec{Name: "t2", Net: true})
	if err != nil {
		t.Fatal(err)
	}
	nb := pl.Boot.NetBacks[0].Dom
	deps := pl.DependentsOf(nb, 0, pl.Now())
	if len(deps) != 2 {
		t.Fatalf("dependents = %v", deps)
	}
	// The log is tamper-evident.
	if pl.Log.Verify() != -1 {
		t.Fatal("fresh audit log corrupt")
	}
	_ = g1
	_ = g2
}

func TestSecurityReportThroughCore(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(GuestSpec{Name: "attacker", Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.SecurityReport(g.Dom)
	if len(rep.Findings) != 23 {
		t.Fatalf("findings = %d", len(rep.Findings))
	}
	tcb := pl.TCB()
	if tcb.SourceLoC != 8000 {
		t.Fatalf("tcb = %d", tcb.SourceLoC)
	}
}

func TestDelegateDriversPrivateCloud(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1, Toolstacks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	// Toolstack 1 starts with nothing delegated: guest creation fails.
	if _, err := pl.CreateGuest(GuestSpec{Name: "p1", Net: true, Toolstack: 1}); err == nil {
		t.Fatal("undelegated toolstack created a networked guest")
	}
	if err := pl.DelegateDrivers(1); err != nil {
		t.Fatal(err)
	}
	g, err := pl.CreateGuest(GuestSpec{Name: "p1", Net: true, Toolstack: 1})
	if err != nil {
		t.Fatalf("after delegation: %v", err)
	}
	_ = g
}

func TestConstraintTagThroughCore(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if _, err := pl.CreateGuest(GuestSpec{Name: "a1", Net: true, ConstraintTag: "tenantA"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.CreateGuest(GuestSpec{Name: "b1", Net: true, ConstraintTag: "tenantB"}); !errors.Is(err, xtypes.ErrConstraint) {
		t.Fatalf("constraint not enforced: %v", err)
	}
	// Same tenant shares fine.
	if _, err := pl.CreateGuest(GuestSpec{Name: "a2", Net: true, ConstraintTag: "tenantA"}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() sim.Time {
		pl, err := New(XoarShards, Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Shutdown()
		g, err := pl.CreateGuest(GuestSpec{Name: "d", VCPUs: 2, Net: true, Disk: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Fetch(32<<20, guest.SinkDisk); err != nil {
			t.Fatal(err)
		}
		return pl.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestLiveMigrationBetweenClusterHosts(t *testing.T) {
	hosts, err := NewCluster(XoarShards, Config{Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := hosts[0], hosts[1]
	defer src.Shutdown() // shared env: one shutdown reaps everything

	g, err := src.CreateGuest(GuestSpec{Name: "roamer", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	// Leave a fingerprint in guest memory and a working set large enough
	// that the pre-copy phase is meaningful.
	d, _ := src.HV.Domain(g.Dom)
	d.Mem.Write(42, []byte("state that must survive migration"))
	for i := 100; i < 30000; i++ {
		d.Mem.Write(xtypes.PFN(i), []byte{0xAB})
	}

	res, err := src.MigrateGuest(g, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Gone at the source; running at the destination.
	if _, err := src.HV.Domain(g.Dom); err == nil {
		t.Fatal("guest still on source")
	}
	nd, err := dst.HV.Domain(res.Guest.Dom)
	if err != nil {
		t.Fatal(err)
	}
	if nd.State != hv.StateRunning {
		t.Fatalf("dst state = %v", nd.State)
	}
	data, _ := nd.Mem.Read(42)
	if string(data) != "state that must survive migration" {
		t.Fatalf("memory fingerprint lost: %q", data)
	}
	// Devices re-wired on the destination: the guest can do I/O there.
	fr, err := res.Guest.Fetch(32<<20, guest.SinkDisk)
	if err != nil {
		t.Fatal(err)
	}
	if fr.ThroughputMBps() < 50 {
		t.Fatalf("post-migration I/O = %.1f MB/s", fr.ThroughputMBps())
	}
	// Pre-copy kept the blackout far below total time.
	if res.Stats.Downtime > 200*sim.Millisecond {
		t.Fatalf("downtime = %v", res.Stats.Downtime)
	}
	if res.Stats.TotalTime < res.Stats.Downtime*3 {
		t.Fatalf("total %v vs downtime %v: no pre-copy benefit", res.Stats.TotalTime, res.Stats.Downtime)
	}
	// Source shard capacity was released: a new guest fits.
	if _, err := src.CreateGuest(GuestSpec{Name: "replacement", Net: true, Disk: true}); err != nil {
		t.Fatalf("source resources leaked: %v", err)
	}
}

func TestMigrationAcrossUnrelatedPlatformsRefused(t *testing.T) {
	a, err := New(XoarShards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	b, err := New(XoarShards, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	g, err := a.CreateGuest(GuestSpec{Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MigrateGuest(g, b); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("cross-simulation migration: %v", err)
	}
}

func TestMultiControllerHostGetsShardPerDevice(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 17, Machine: hw.MachineConfig{CPUs: 8, RAMMB: 8192, NICs: 2, Disks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	// One driver shard per controller (Table 6.1's note).
	if len(pl.Boot.NetBacks) != 2 || len(pl.Boot.BlkBacks) != 2 {
		t.Fatalf("netbacks=%d blkbacks=%d", len(pl.Boot.NetBacks), len(pl.Boot.BlkBacks))
	}
	// Two tenants with conflicting constraints can now coexist: each locks
	// its own shard pair.
	if _, err := pl.CreateGuest(GuestSpec{Name: "a", Net: true, Disk: true, ConstraintTag: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.CreateGuest(GuestSpec{Name: "b", Net: true, Disk: true, ConstraintTag: "B"}); err != nil {
		t.Fatalf("second tenant on second controller pair: %v", err)
	}
	// A third tenant has no free shard left.
	if _, err := pl.CreateGuest(GuestSpec{Name: "c", Net: true, ConstraintTag: "C"}); !errors.Is(err, xtypes.ErrConstraint) {
		t.Fatalf("third constrained tenant: %v", err)
	}
}

func TestMinimalConfiguration512MB(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 17, NoConsole: true, DestroyPCIBack: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	total := 0
	for _, c := range pl.Components() {
		total += c.MemMB
	}
	// The paper's minimal hosting configuration: 512MB of shards.
	if total != 512 {
		t.Fatalf("minimal config = %dMB, want 512", total)
	}
	// Still fully functional for headless guests.
	g, err := pl.CreateGuest(GuestSpec{Name: "headless", Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := g.Fetch(16<<20, guest.SinkDisk); err != nil || res.ThroughputMBps() < 50 {
		t.Fatalf("minimal-config I/O: %+v %v", res, err)
	}
	// Console writes fail gracefully.
	if err := g.WriteConsole("x"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("console on minimal config: %v", err)
	}
}

func TestGuestSpecMultiQueue(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(GuestSpec{Name: "mq", VCPUs: 2, Net: true, Disk: true, NetQueues: 4, DiskQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The backends map each queue's ring pages: two per vif queue (tx and
	// rx) and one per vbd queue.
	if n := pl.HV.MM.ForeignMapCount(pl.Boot.NetBacks[0].Dom, g.Dom); n != 2*4 {
		t.Fatalf("netback maps %d ring pages, want 2 for each of 4 queues", n)
	}
	if n := pl.HV.MM.ForeignMapCount(pl.Boot.BlkBacks[0].Dom, g.Dom); n != 2 {
		t.Fatalf("blkback maps %d ring pages, want 1 for each of 2 queues", n)
	}
	var res workloadProbe
	done := false
	pl.Env.Spawn("probe", func(p *sim.Proc) {
		res.fetch = g.VM.Fetch(p, 8<<20, guest.SinkDisk)
		done = true
	})
	pl.Env.RunFor(120 * sim.Second)
	if !done {
		t.Fatal("fetch did not complete")
	}
	if res.fetch.Bytes != 8<<20 {
		t.Fatalf("fetched %d", res.fetch.Bytes)
	}
}

type workloadProbe struct{ fetch guest.FetchResult }
