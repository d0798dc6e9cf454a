package migrate

import (
	"errors"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/xtypes"
)

// Failure-path contract, pinned by the tests below: a migration that fails at
// any point after the destination shell exists (1) leaves the guest alive and
// running on the source — if stop-and-copy had already paused it, it is
// resumed — and (2) reaps the destination reservation so the failed attempt
// does not strand memory on the target host.

// grantDestroy upgrades the destination builder-role domain with the destroy
// right the real Builder holds, so abort's shell cleanup can be observed.
func grantDestroy(t *testing.T, h *hv.Hypervisor, dom xtypes.DomID) {
	t.Helper()
	if err := h.AssignPrivileges(hv.SystemCaller, dom, hv.Assignment{Hypercalls: []xtypes.Hypercall{
		xtypes.HyperDomctlCreate, xtypes.HyperDomctlUnpause, xtypes.HyperDomctlDestroy,
	}}); err != nil {
		t.Fatal(err)
	}
}

// domainNamed reports whether the hypervisor has a live domain with the name.
func domainNamed(h *hv.Hypervisor, name string) bool {
	for _, d := range h.Domains() {
		if d.Cfg.Name == name {
			return true
		}
	}
	return false
}

func TestSourceDestroyedMidTransferCleansDestination(t *testing.T) {
	env, src, dst, orch, guest, dstBuilder := twoHosts(t)
	grantDestroy(t, dst, dstBuilder.ID)
	// Enough touched pages that pre-copy stays on the wire for seconds.
	for i := 0; i < 100_000; i++ {
		guest.Mem.Write(xtypes.PFN(i), []byte{1})
	}
	var merr error
	env.Spawn("migrate", func(p *sim.Proc) {
		_, _, merr = LiveMigrate(p, src, orch.ID, guest.ID, dst, dstBuilder.ID, DefaultLink(), DefaultOptions())
	})
	// The guest dies mid-transfer (crash or operator destroy racing us).
	env.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(500 * sim.Millisecond)
		if err := src.DestroyDomain(hv.SystemCaller, guest.ID, "crashed"); err != nil {
			t.Errorf("destroy: %v", err)
		}
	})
	env.RunFor(600 * sim.Second)
	env.Shutdown()
	if !errors.Is(merr, xtypes.ErrNoDomain) {
		t.Fatalf("migration of dying guest: %v, want ErrNoDomain", merr)
	}
	// The destination reservation must not be stranded.
	if domainNamed(dst, "app") {
		t.Fatal("failed migration leaked the destination shell")
	}
}

func TestDestinationLostMidTransferResumesSource(t *testing.T) {
	env, src, dst, orch, guest, dstBuilder := twoHosts(t)
	grantDestroy(t, dst, dstBuilder.ID)
	for i := 0; i < 100_000; i++ {
		guest.Mem.Write(xtypes.PFN(i), []byte{1})
	}
	var merr error
	env.Spawn("migrate", func(p *sim.Proc) {
		_, _, merr = LiveMigrate(p, src, orch.ID, guest.ID, dst, dstBuilder.ID, DefaultLink(), DefaultOptions())
	})
	// The destination host reaps the shell mid-transfer (admission control,
	// host eviction — anything that kills the reservation under us).
	env.Spawn("evictor", func(p *sim.Proc) {
		p.Sleep(500 * sim.Millisecond)
		for _, d := range dst.Domains() {
			if d.Cfg.Name == "app" {
				if err := dst.DestroyDomain(hv.SystemCaller, d.ID, "evicted"); err != nil {
					t.Errorf("evict: %v", err)
				}
			}
		}
	})
	env.RunFor(600 * sim.Second)
	env.Shutdown()
	if merr == nil {
		t.Fatal("migration into a dead reservation must fail")
	}
	// The guest survives on the source — and is running, not left paused by
	// the aborted stop-and-copy.
	d, err := src.Domain(guest.ID)
	if err != nil {
		t.Fatalf("guest lost on source: %v", err)
	}
	if d.State != hv.StateRunning {
		t.Fatalf("guest state after aborted migration = %v, want running", d.State)
	}
}

func TestPauseFailureReapsDestinationShell(t *testing.T) {
	env, src, dst, _, guest, dstBuilder := twoHosts(t)
	grantDestroy(t, dst, dstBuilder.ID)
	// An orchestrator that can map the guest but not pause it: pre-copy runs,
	// stop-and-copy fails — after the destination shell exists.
	weak, _ := src.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "weak-orch", MemMB: 64, Shard: true})
	src.Unpause(hv.SystemCaller, weak.ID)
	src.AssignPrivileges(hv.SystemCaller, weak.ID, hv.Assignment{Hypercalls: []xtypes.Hypercall{
		xtypes.HyperMapForeign,
	}})
	srcSetParent(t, src, guest.ID, weak.ID)
	for i := 0; i < 10_000; i++ {
		guest.Mem.Write(xtypes.PFN(i), []byte{1})
	}
	var merr error
	env.Spawn("migrate", func(p *sim.Proc) {
		_, _, merr = LiveMigrate(p, src, weak.ID, guest.ID, dst, dstBuilder.ID, DefaultLink(), DefaultOptions())
	})
	env.RunFor(600 * sim.Second)
	env.Shutdown()
	if !errors.Is(merr, xtypes.ErrPerm) {
		t.Fatalf("pause without rights: %v, want ErrPerm", merr)
	}
	if domainNamed(dst, "app") {
		t.Fatal("failed migration leaked the destination shell")
	}
	if d, err := src.Domain(guest.ID); err != nil || d.State != hv.StateRunning {
		t.Fatalf("guest must stay running on source (err=%v)", err)
	}
}

// stubShard is a minimal Restartable driver shard for the microreboot race.
type stubShard struct {
	dom      xtypes.DomID
	restarts int
}

func (s *stubShard) DomID() xtypes.DomID { return s.dom }
func (s *stubShard) Name() string        { return "netback-stub" }
func (s *stubShard) Restart(p *sim.Proc, fast bool) {
	s.restarts++
	p.Sleep(50 * sim.Millisecond)
}

// TestMigrateGuestWhoseShardIsMicrorebooting pins the interaction the paper's
// design implies but nothing tested: device connections are never migrated
// (the destination re-wires and frontends renegotiate, §3.3), so a microreboot
// of the guest's serving shard concurrent with the migration must neither
// block the migration nor be blocked by it. Afterwards the source-side client
// link is gone — torn down by the source destroy — so the shard's exposure
// window over the departed guest has closed.
func TestMigrateGuestWhoseShardIsMicrorebooting(t *testing.T) {
	env, src, dst, orch, guest, dstBuilder := twoHosts(t)
	grantDestroy(t, dst, dstBuilder.ID)

	shard, err := src.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "netback", MemMB: 64, Shard: true})
	if err != nil {
		t.Fatal(err)
	}
	src.Unpause(hv.SystemCaller, shard.ID)
	src.AssignPrivileges(hv.SystemCaller, shard.ID, hv.Assignment{Hypercalls: []xtypes.Hypercall{
		xtypes.HyperVMSnapshot,
	}})
	if err := src.VMSnapshot(shard.ID); err != nil {
		t.Fatal(err)
	}
	if err := src.LinkShardClient(hv.SystemCaller, shard.ID, guest.ID); err != nil {
		t.Fatal(err)
	}

	eng := snapshot.NewEngine(src, hv.SystemCaller)
	stub := &stubShard{dom: shard.ID}
	if err := eng.Manage(stub, snapshot.Policy{Kind: snapshot.PolicyPerRequest}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100_000; i++ {
		guest.Mem.Write(xtypes.PFN(i), []byte{1})
	}
	var merr error
	env.Spawn("migrate", func(p *sim.Proc) {
		_, _, merr = LiveMigrate(p, src, orch.ID, guest.ID, dst, dstBuilder.ID, DefaultLink(), DefaultOptions())
	})
	// The shard restart lands squarely inside the pre-copy window.
	env.Spawn("rebooter", func(p *sim.Proc) {
		p.Sleep(500 * sim.Millisecond)
		if err := eng.RequestRestart(p, shard.ID); err != nil {
			t.Errorf("restart during migration: %v", err)
		}
	})
	env.RunFor(600 * sim.Second)
	env.Shutdown()
	if merr != nil {
		t.Fatalf("migration concurrent with shard microreboot: %v", merr)
	}
	if stub.restarts != 1 {
		t.Fatalf("shard restarts = %d, want 1", stub.restarts)
	}
	if st, ok := eng.Stats(shard.ID); !ok || st.Restarts != 1 {
		t.Fatalf("restart stats: %+v", st)
	}
	// Source copy destroyed by the migration; its shard link went with it.
	sd, err := src.Domain(shard.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sd.Clients() {
		if c == guest.ID {
			t.Fatal("departed guest still linked to source shard")
		}
	}
}
