package core

// System tests: whole-platform scenarios that combine density, microreboots,
// sharing, forensics, and recovery — the deployment shapes §3.4 describes.

import (
	"testing"

	"xoar/internal/guest"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// TestDenseDeployment packs many small guests on one host (§1: dense
// multiplexing is the economic point of virtualization) and runs I/O on all
// of them concurrently under a microreboot policy.
func TestDenseDeployment(t *testing.T) {
	pl, err := New(XoarShards, Config{
		Seed:    23,
		Machine: hw.MachineConfig{CPUs: 8, RAMMB: 16 * 1024, NICs: 1, Disks: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()

	const n = 12
	guests := make([]*Guest, 0, n)
	for i := 0; i < n; i++ {
		g, err := pl.CreateGuest(GuestSpec{
			Name: "tenant" + string(rune('a'+i)), MemMB: 256, Net: true, Disk: true,
		})
		if err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
		guests = append(guests, g)
	}
	if err := pl.SetNetBackRestartPolicy(RestartPolicy{Interval: 5 * sim.Second, Fast: true}); err != nil {
		t.Fatal(err)
	}

	// All twelve transfer concurrently; the NIC is shared, so per-guest
	// throughput divides, but everyone must finish.
	results := make([]guest.FetchResult, n)
	doneCh := 0
	for i, g := range guests {
		i, g := i, g
		pl.Env.Spawn("wget-"+g.Name, func(p *sim.Proc) {
			results[i] = g.VM.Fetch(p, 64<<20, guest.SinkNull)
			doneCh++
		})
	}
	for i := 0; i < 300 && doneCh < n; i++ {
		pl.Advance(sim.Second)
	}
	if doneCh != n {
		t.Fatalf("only %d/%d transfers finished", doneCh, n)
	}
	var total float64
	for i, r := range results {
		if r.Bytes < 64<<20 {
			t.Fatalf("guest %d incomplete: %d bytes", i, r.Bytes)
		}
		total += r.ThroughputMBps()
	}
	// Aggregate throughput still approaches line rate despite 12-way sharing
	// and periodic microreboots.
	if total < 60 {
		t.Fatalf("aggregate = %.1f MB/s", total)
	}

	// Same-page sharing across identically-booted tenants reclaims headroom.
	for _, g := range guests {
		d, _ := pl.HV.Domain(g.Dom)
		for pfn := 0; pfn < 2000; pfn++ {
			d.Mem.Write(xtypes.PFN(pfn), []byte("common-kernel-text"))
		}
	}
	st := pl.DedupScan()
	if st.SavedPages < 11*2000 {
		t.Fatalf("dedup saved %d pages across %d identical guests", st.SavedPages, n)
	}
}

// TestEndToEndIncidentScenario walks the public-cloud incident narrative:
// tenants run under restarts, a driver compromise is detected, forensics
// names the exposed tenants, the driver is rebuilt in place, and service
// continues — all on one platform instance.
func TestEndToEndIncidentScenario(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()

	a, err := pl.CreateGuest(GuestSpec{Name: "tenantA", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.CreateGuest(GuestSpec{Name: "tenantB", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	pl.SetNetBackRestartPolicy(RestartPolicy{Interval: 5 * sim.Second, Fast: true})
	if _, err := a.Fetch(128<<20, guest.SinkDisk); err != nil {
		t.Fatal(err)
	}
	// Let at least one microreboot cycle land in the audit trail.
	pl.Advance(6 * sim.Second)

	// Incident: NetBack is found compromised at time t1.
	nb := pl.Boot.NetBacks[0].Dom
	t1 := pl.Now()

	// 1. What could the attacker do from there? Probe it.
	probe := pl.ProbeCompromise(nb, b.Dom)
	if len(probe.Obtained()) != 0 {
		t.Fatalf("compromised NetBack escalated: %v", probe.Obtained())
	}

	// 2. Who was exposed? Both tenants, per the audit log.
	exposed := pl.DependentsOf(nb, 0, t1)
	if len(exposed) != 2 {
		t.Fatalf("exposed = %v", exposed)
	}

	// 3. Containment analysis for the customer report.
	rep := pl.SecurityReport(a.Dom)
	if rep.ByOutcome[0] == 0 { // OutContained
		t.Fatal("no contained findings in the report")
	}

	// 4. Remediate: rebuild the driver in place with the patched release.
	newDom, err := pl.UpgradeNetBack(0)
	if err != nil {
		t.Fatal(err)
	}
	if newDom == nb {
		t.Fatal("driver not replaced")
	}

	// 5. Service resumed for everyone.
	for _, g := range []*Guest{a, b} {
		res, err := g.Fetch(32<<20, guest.SinkNull)
		if err != nil || res.ThroughputMBps() < 40 {
			t.Fatalf("%s post-incident: %+v %v", g.Name, res, err)
		}
	}

	// 6. The whole incident is in the tamper-evident log.
	if pl.Log.Verify() != -1 {
		t.Fatal("audit log corrupt")
	}
	if pl.Log.KindCount("rollback") == 0 || pl.Log.KindCount("destroy") == 0 {
		t.Fatal("incident not fully audited")
	}
}
