package seceval

import (
	"errors"
	"testing"

	"xoar/internal/capability"
	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/xtypes"
)

// Regression tests for the enforcement gaps surfaced by the hypercall
// sequence fuzzer (internal/attack). Each test pins one fixed hole so a
// future refactor of internal/hv cannot quietly reopen it: the fuzzer would
// eventually rediscover the gap, but these fail immediately and name it.

// TestShardCannotCurateOwnClients: a compromised shard used to be able to
// link arbitrary guests to itself (controls() counts every domain as
// controlling itself) and then pass the IVC policy against them — and,
// symmetrically, to unlink its real clients and close their audit exposure
// windows. Both directions must now be refused and counted.
func TestShardCannotCurateOwnClients(t *testing.T) {
	env, h, _ := newAuditedHV(t)
	defer env.Shutdown()
	shard := mkAuditedDom(t, h, "netback", true)
	guest := mkAuditedDom(t, h, "guest", false)
	if err := h.LinkShardClient(hv.SystemCaller, shard.ID, guest.ID); err != nil {
		t.Fatal(err)
	}

	dc := h.DeniedCalls
	if err := h.LinkShardClient(shard.ID, shard.ID, guest.ID); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("self-link = %v, want ErrPerm", err)
	}
	if err := h.UnlinkShardClient(shard.ID, shard.ID, guest.ID); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("self-unlink = %v, want ErrPerm", err)
	}
	if h.DeniedCalls != dc+2 {
		t.Fatalf("DeniedCalls moved by %d, want 2", h.DeniedCalls-dc)
	}
	// The real client link survived the shard's unlink attempt.
	if got := shard.Clients(); len(got) != 1 || got[0] != guest.ID {
		t.Fatalf("client list after self-unlink = %v, want [%v]", got, guest.ID)
	}
}

// TestUnlinkNonShardDenied: unlinking a plain guest used to succeed as a
// no-op and emit a bogus unlink-shard audit record against it, corrupting
// DependentsOf interval bookkeeping. It must now fail with ErrNotShard and
// leave no topology record.
func TestUnlinkNonShardDenied(t *testing.T) {
	env, h, log := newAuditedHV(t)
	defer env.Shutdown()
	ts := mkAuditedDom(t, h, "toolstack", true)
	guestA := mkAuditedDom(t, h, "guestA", false)
	guestB := mkAuditedDom(t, h, "guestB", false)

	dc := h.DeniedCalls
	if err := h.UnlinkShardClient(ts.ID, guestA.ID, guestB.ID); !errors.Is(err, xtypes.ErrNotShard) {
		t.Fatalf("unlink from non-shard = %v, want ErrNotShard", err)
	}
	if err := h.LinkShardClient(ts.ID, guestA.ID, guestB.ID); !errors.Is(err, xtypes.ErrNotShard) {
		t.Fatalf("link to non-shard = %v, want ErrNotShard", err)
	}
	if h.DeniedCalls != dc+2 {
		t.Fatalf("DeniedCalls moved by %d, want 2", h.DeniedCalls-dc)
	}
	if n := log.KindCount("unlink-shard") + log.KindCount("link-shard"); n != 0 {
		t.Fatalf("refused link ops left %d topology records", n)
	}
}

// TestObjectLevelDenialsAreCounted: refusals raised below the hypercall
// whitelist — the IVC policy, the grant table's grantee check, event-channel
// port reservations — used to return ErrPerm without ticking DeniedCalls,
// so the fuzzer's attempted/denied accounting (and any rate alarm built on
// it) missed them entirely.
func TestObjectLevelDenialsAreCounted(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV
	nb := pl.NetBacks[0].Dom
	bb := pl.BlkBacks[0].Dom

	// IVC policy: two plain guests may not share pages.
	dc := h.DeniedCalls
	if _, err := h.Grant(guests[0], guests[1], 0, false); !errors.Is(err, xtypes.ErrNotShard) {
		t.Fatalf("guest-to-guest grant = %v, want ErrNotShard", err)
	}
	if h.DeniedCalls == dc {
		t.Fatal("IVC denial did not tick DeniedCalls")
	}

	// Grant table: mapping a ref issued to a different grantee. Both
	// backends serve the guest, so the IVC layer passes and the refusal
	// comes from the grant table itself.
	ref, err := h.Grant(guests[0], nb, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	dc = h.DeniedCalls
	if _, err := h.MapGrant(bb, guests[0], ref, false); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("wrong-grantee map = %v, want ErrPerm", err)
	}
	if h.DeniedCalls == dc {
		t.Fatal("grant-table denial did not tick DeniedCalls")
	}

	// Event channels: binding a port reserved for another domain.
	port, err := h.EvtchnAllocUnbound(nb, guests[0])
	if err != nil {
		t.Fatal(err)
	}
	dc = h.DeniedCalls
	if _, err := h.EvtchnBind(guests[1], nb, port); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("reserved-port bind = %v, want ErrPerm", err)
	}
	if h.DeniedCalls == dc {
		t.Fatal("evtchn denial did not tick DeniedCalls")
	}
}

// TestSnapshotWriteOnce: a compromised driver shard could re-snapshot its
// corrupted image, after which every microreboot faithfully restored the
// compromise. Snapshots are taken once at boot (§3.3); a second attempt
// must be refused and counted.
func TestSnapshotWriteOnce(t *testing.T) {
	env, pl, _ := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV
	nb := pl.NetBacks[0].Dom

	dc := h.DeniedCalls
	if err := h.VMSnapshot(nb); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("re-snapshot = %v, want ErrPerm", err)
	}
	if h.DeniedCalls == dc {
		t.Fatal("re-snapshot denial did not tick DeniedCalls")
	}
}

// TestRuntimeRevocationOverridesManifest: the capability manifest is the
// boot-time whitelist, not a floor. After RevokeHypercall the runtime
// refusal must win even though capability.Hypercalls still lists the call
// for the role — the static surface describes what the shard was built
// with, the privilege table what it holds now.
func TestRuntimeRevocationOverridesManifest(t *testing.T) {
	env, pl, _ := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV
	builder := pl.BuilderDom

	// A fresh shard, granted HyperVMSnapshot and then revoked before it
	// ever snapshots, isolates the revocation path from the write-once
	// rule (the boot-time shards already hold snapshots).
	s, err := h.CreateDomain(builder, hv.DomainConfig{Name: "probe-shard", MemMB: 16, Shard: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unpause(builder, s.ID); err != nil {
		t.Fatal(err)
	}
	grant := hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot}}
	if err := h.AssignPrivileges(builder, s.ID, grant); err != nil {
		t.Fatal(err)
	}
	if err := h.RevokeHypercall(builder, s.ID, xtypes.HyperVMSnapshot); err != nil {
		t.Fatal(err)
	}
	dc := h.DeniedCalls
	if err := h.VMSnapshot(s.ID); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("revoked snapshot = %v, want ErrPerm", err)
	}
	if h.DeniedCalls == dc {
		t.Fatal("revoked-hypercall denial did not tick DeniedCalls")
	}
	// Re-granting restores the call: the revocation, not some other gate,
	// was the decisive refusal.
	if err := h.AssignPrivileges(builder, s.ID, grant); err != nil {
		t.Fatal(err)
	}
	if err := h.VMSnapshot(s.ID); err != nil {
		t.Fatalf("re-granted snapshot = %v, want success", err)
	}

	// Revoking from the live netback leaves the static manifest untouched:
	// the role still lists the call.
	nb := pl.NetBacks[0].Dom
	if err := h.RevokeHypercall(builder, nb, xtypes.HyperVMSnapshot); err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, hc := range capability.Hypercalls(capability.RoleNetBack) {
		if hc == xtypes.HyperVMSnapshot {
			listed = true
		}
	}
	if !listed {
		t.Fatal("manifest dropped HyperVMSnapshot for netback — revocation must be runtime-only")
	}
}

// --- Probe edge cases --------------------------------------------------------

// TestProbeMidMicroreboot: the dynamic probe run while a netback microreboot
// is in flight must still come back clean — rollback must not leave a window
// where enforcement is relaxed — and the restart must complete normally
// afterwards.
func TestProbeMidMicroreboot(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	nb := pl.NetBacks[0].Dom
	eng := pl.Engine
	if err := pl.Builder.SetRestartPolicy(pl.NetBacks[0], snapshot.Policy{Kind: snapshot.PolicyPerRequest}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("mr", func(p *sim.Proc) {
		if err := eng.RequestRestart(p, nb); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	// Advance just past the rollback so the component is mid-recovery.
	env.RunFor(2 * sim.Microsecond)
	p := Probe(pl, nb, guests[1])
	if !p.Clean() {
		t.Fatalf("netback escalated mid-microreboot: %v", p.Obtained())
	}
	env.RunFor(30 * sim.Second)
	st, ok := eng.Stats(nb)
	if !ok || st.Restarts != 1 || st.Errors != 0 {
		t.Fatalf("restart did not complete cleanly: %+v (managed=%v)", st, ok)
	}
}

// TestProbeAfterUnlink: once a guest is unlinked from the netback, the
// shard's residual reach over it is gone — a fresh grant toward the
// ex-client must be refused (GrantedToVictim stays false) and counted.
func TestProbeAfterUnlink(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV
	nb := pl.NetBacks[0].Dom
	if err := h.UnlinkShardClient(hv.SystemCaller, nb, guests[1]); err != nil {
		t.Fatal(err)
	}
	dc := h.DeniedCalls
	p := Probe(pl, nb, guests[1])
	if p.GrantedToVictim {
		t.Fatal("netback granted to an unlinked ex-client")
	}
	if !p.Clean() {
		t.Fatalf("netback obtained after unlink: %v", p.Obtained())
	}
	if h.DeniedCalls == dc {
		t.Fatal("probe denials were not counted")
	}
}
