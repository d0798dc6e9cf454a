package toolstack_test

import (
	"errors"
	"testing"

	"xoar/internal/boot"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/migrate"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

// rig boots a full Xoar platform; the toolstack under test is the one the
// boot sequence provisioned, with both driver shards delegated.
type rig struct {
	env *sim.Env
	h   *hv.Hypervisor
	pl  *boot.Platform
	ts  *toolstack.Toolstack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	pl, err := boot.Run(h, false, boot.Options{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return &rig{env: env, h: h, pl: pl, ts: pl.Toolstacks[0]}
}

func (r *rig) create(t *testing.T, cfg toolstack.GuestConfig) (*toolstack.Guest, error) {
	t.Helper()
	var g *toolstack.Guest
	var err error
	if !r.env.Await("create", 120*sim.Second, func(p *sim.Proc) { g, err = r.ts.CreateVM(p, cfg) }) {
		t.Fatal("create did not complete")
	}
	return g, err
}

func (r *rig) destroy(t *testing.T, dom xtypes.DomID) error {
	t.Helper()
	var err error
	if !r.env.Await("destroy", 30*sim.Second, func(p *sim.Proc) { err = r.ts.DestroyVM(p, dom) }) {
		t.Fatal("destroy did not complete")
	}
	return err
}

func TestCreateWiresDevicesAndConsole(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	g, err := r.create(t, toolstack.GuestConfig{Name: "g", Image: osimage.ImgGuestPV, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Net == nil || !g.Net.Connected() {
		t.Fatal("vif not connected")
	}
	if g.Blk == nil || !g.Blk.Connected() {
		t.Fatal("vbd not connected")
	}
	if r.pl.Console.Buffer(g.Dom) == nil {
		t.Fatal("console missing")
	}
	// The shard-client links exist in the hypervisor.
	nb, _ := r.h.Domain(g.NetB.Dom)
	found := false
	for _, c := range nb.Clients() {
		if c == g.Dom {
			found = true
		}
	}
	if !found {
		t.Fatal("guest not linked to netback")
	}
	// The backend holds the guest's disk image exclusively.
	if err := g.BlkB.DeleteImage("g-disk"); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("mounted image deletable: %v", err)
	}
	if !r.ts.Manages(g.Dom) {
		t.Fatal("guest not managed")
	}
}

func TestDestroyCleansEverything(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	g, err := r.create(t, toolstack.GuestConfig{Name: "g", Image: osimage.ImgGuestPV, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.destroy(t, g.Dom); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.Domain(g.Dom); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatal("domain survived")
	}
	// The disk image was unmounted and deleted; a new guest can reuse the name.
	if _, err := r.create(t, toolstack.GuestConfig{Name: "g", Image: osimage.ImgGuestPV, Disk: true}); err != nil {
		t.Fatalf("recreate after destroy: %v", err)
	}
	if r.ts.Destroyed != 1 {
		t.Fatalf("destroyed = %d", r.ts.Destroyed)
	}
}

func TestDestroyForeignGuestRefused(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	// A domain this toolstack does not manage.
	other, _ := r.h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "other", MemMB: 64})
	r.h.Unpause(hv.SystemCaller, other.ID)
	if err := r.destroy(t, other.ID); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign destroy: %v", err)
	}
}

func TestQuotas(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	r.ts.SetQuota(toolstack.Quota{MaxVMs: 1, MaxMemMB: 8 * 1024})
	if _, err := r.create(t, toolstack.GuestConfig{Name: "a", Image: osimage.ImgGuestPV}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.create(t, toolstack.GuestConfig{Name: "b", Image: osimage.ImgGuestPV}); !errors.Is(err, xtypes.ErrQuota) {
		t.Fatalf("vm quota: %v", err)
	}
	r.ts.SetQuota(toolstack.Quota{MaxVMs: 10, MaxMemMB: 1500})
	if _, err := r.create(t, toolstack.GuestConfig{Name: "c", Image: osimage.ImgGuestPV, MemMB: 1024}); !errors.Is(err, xtypes.ErrQuota) {
		t.Fatalf("mem quota: %v", err)
	}
}

func TestConstraintLockReleasesOnDestroy(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	a, err := r.create(t, toolstack.GuestConfig{Name: "a", Image: osimage.ImgGuestPV, Net: true, ConstraintTag: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.create(t, toolstack.GuestConfig{Name: "b", Image: osimage.ImgGuestPV, Net: true, ConstraintTag: "B"}); !errors.Is(err, xtypes.ErrConstraint) {
		t.Fatalf("constraint: %v", err)
	}
	// Destroying the last tenant-A guest unlocks the shard for tenant B.
	if err := r.destroy(t, a.Dom); err != nil {
		t.Fatal(err)
	}
	if _, err := r.create(t, toolstack.GuestConfig{Name: "b", Image: osimage.ImgGuestPV, Net: true, ConstraintTag: "B"}); err != nil {
		t.Fatalf("post-release constraint: %v", err)
	}
}

func TestUntaggedGuestsShareFreely(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	for _, name := range []string{"x", "y", "z"} {
		if _, err := r.create(t, toolstack.GuestConfig{Name: name, Image: osimage.ImgGuestPV, Net: true}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConstraintFailureLeavesNoDebris(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	if _, err := r.create(t, toolstack.GuestConfig{Name: "a", Image: osimage.ImgGuestPV, Net: true, Disk: true, ConstraintTag: "A"}); err != nil {
		t.Fatal(err)
	}
	before := len(r.h.Domains())
	// This fails on the disk shard after the net shard was picked; the net
	// reservation must be rolled back.
	if _, err := r.create(t, toolstack.GuestConfig{Name: "b", Image: osimage.ImgGuestPV, Net: true, Disk: true, ConstraintTag: "B"}); err == nil {
		t.Fatal("expected constraint failure")
	}
	if after := len(r.h.Domains()); after != before {
		t.Fatalf("domains leaked: %d -> %d", before, after)
	}
	// Tenant A can still place a second guest (shard not double-counted).
	if _, err := r.create(t, toolstack.GuestConfig{Name: "a2", Image: osimage.ImgGuestPV, Net: true, Disk: true, ConstraintTag: "A"}); err != nil {
		t.Fatalf("tenant A second guest: %v", err)
	}
}

// A CreateVM that fails after the Builder returned the guest releases what
// the call took, and only that. A second guest under a live guest's name
// collides on the disk image; afterwards the host has its earlier domains,
// NetBack its earlier clients and the toolstack its earlier guests, while
// the first guest keeps its vif and its disk.
func TestFailedCreateReleasesWhatItTook(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	cfg := toolstack.GuestConfig{Name: "g", Image: osimage.ImgGuestPV, Net: true, Disk: true}
	first, err := r.create(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := r.h.Domain(first.NetB.Dom)
	if err != nil {
		t.Fatal(err)
	}
	domains, clients := len(r.h.Domains()), len(nb.Clients())

	if _, err := r.create(t, cfg); !errors.Is(err, xtypes.ErrExists) {
		t.Fatalf("duplicate-name create: %v", err)
	}
	if got := len(r.h.Domains()); got != domains {
		t.Errorf("domains: %d -> %d", domains, got)
	}
	if got := len(nb.Clients()); got != clients {
		t.Errorf("netback clients: %d -> %d", clients, got)
	}
	if !first.Net.Connected() || !first.Blk.Connected() {
		t.Errorf("first guest lost its devices: vif %v, vbd %v", first.Net.Connected(), first.Blk.Connected())
	}

	// An image nobody has mounted is not the failed call's either.
	if err := first.BlkB.CreateImage("staged-disk", 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := r.create(t, toolstack.GuestConfig{Name: "staged", Image: osimage.ImgGuestPV, Disk: true}); !errors.Is(err, xtypes.ErrExists) {
		t.Fatalf("create over a staged image: %v", err)
	}
	if err := first.BlkB.CreateImage("staged-disk", 1024); !errors.Is(err, xtypes.ErrExists) {
		t.Errorf("failed create deleted the staged image: %v", err)
	}
	// Neither failed create left a record: with room for one more, a
	// second guest fits under the VM quota.
	r.ts.SetQuota(toolstack.Quota{MaxVMs: 2, MaxMemMB: 1 << 20})
	if _, err := r.create(t, toolstack.GuestConfig{Name: "second", Image: osimage.ImgGuestPV}); err != nil {
		t.Errorf("failed creates left a toolstack record: %v", err)
	}
}

func TestPauseUnpause(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	g, err := r.create(t, toolstack.GuestConfig{Name: "g", Image: osimage.ImgGuestPV})
	if err != nil {
		t.Fatal(err)
	}
	// The toolstack holds the privilege to pause and resume the guests it
	// manages.
	if err := r.h.Pause(r.ts.Dom, g.Dom); err != nil {
		t.Fatal(err)
	}
	d, _ := r.h.Domain(g.Dom)
	if d.State != hv.StatePaused {
		t.Fatalf("state = %v", d.State)
	}
	if err := r.h.Unpause(r.ts.Dom, g.Dom); err != nil {
		t.Fatal(err)
	}
	if d.State != hv.StateRunning {
		t.Fatalf("state = %v", d.State)
	}
}

func TestAdoptExistingDomain(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	// A domain that arrived outside this toolstack's CreateVM path (e.g. by
	// migration): build it directly, hand parenthood over, then adopt.
	var dom xtypes.DomID
	done := false
	r.env.Spawn("mk", func(p *sim.Proc) {
		d, err := r.h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "incoming", MemMB: 256})
		if err != nil {
			t.Error(err)
			return
		}
		r.h.Unpause(hv.SystemCaller, d.ID)
		r.h.SetParentTool(hv.SystemCaller, d.ID, r.ts.Dom)
		dom = d.ID
		done = true
	})
	r.env.RunFor(sim.Second)
	if !done {
		t.Fatal("setup incomplete")
	}

	var g *toolstack.Guest
	var err error
	done = false
	r.env.Spawn("adopt", func(p *sim.Proc) {
		g, err = r.ts.Adopt(p, dom, toolstack.GuestConfig{Name: "incoming", Net: true, Disk: true})
		done = true
	})
	r.env.RunFor(30 * sim.Second)
	if !done || err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if g.Net == nil || !g.Net.Connected() || g.Blk == nil || !g.Blk.Connected() {
		t.Fatal("adopted guest's devices not wired")
	}
	// Double adoption is refused.
	r.env.Spawn("again", func(p *sim.Proc) {
		if _, err := r.ts.Adopt(p, dom, toolstack.GuestConfig{Name: "incoming"}); !errors.Is(err, xtypes.ErrExists) {
			t.Errorf("double adopt: %v", err)
		}
	})
	r.env.RunFor(sim.Second)
}

func TestForgetReleasesWithoutDestroy(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	g, err := r.create(t, toolstack.GuestConfig{Name: "m", Image: osimage.ImgGuestPV, Net: true, Disk: true, ConstraintTag: "X"})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the domain having migrated away.
	r.h.DestroyDomain(hv.SystemCaller, g.Dom, "migrated")
	r.ts.Forget(g.Dom)
	r.ts.Forget(g.Dom) // idempotent
	if r.ts.Manages(g.Dom) {
		t.Fatal("record survived Forget")
	}
	// The constraint lock and the disk image were released: a different
	// tenant can use the shards and the image name immediately.
	if _, err := r.create(t, toolstack.GuestConfig{Name: "m", Image: osimage.ImgGuestPV, Net: true, Disk: true, ConstraintTag: "Y"}); err != nil {
		t.Fatalf("resources not released by Forget: %v", err)
	}
}

// TestMigrateToHandsOverOrStays pins MigrateTo's contract: a pre-copy that
// fails leaves the guest with the source toolstack; one that succeeds leaves
// it managed by the destination only, with its recorded config and its
// devices re-wired there.
func TestMigrateToHandsOverOrStays(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	h2 := hv.New(r.env, hw.NewMachine(r.env))
	pl2, err := boot.Run(h2, false, boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := pl2.Toolstacks[0]
	g, err := r.create(t, toolstack.GuestConfig{Name: "roamer", Image: osimage.ImgGuestPV, MemMB: 512, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	move := func() (*toolstack.Guest, error) {
		var rec *toolstack.Guest
		var err error
		if !r.env.Await("migrate", 600*sim.Second, func(p *sim.Proc) {
			rec, _, err = r.ts.MigrateTo(p, g.Dom, dst, migrate.DefaultLink())
		}) {
			t.Fatal("migration did not complete")
		}
		return rec, err
	}

	hog, err := h2.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "hog", MemMB: h2.MM.FreeMB()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := move(); !errors.Is(err, xtypes.ErrNoMem) {
		t.Fatalf("migration to a full host: %v", err)
	}
	if !r.ts.Manages(g.Dom) || dst.Manages(g.Dom) {
		t.Fatal("failed pre-copy moved the guest's record")
	}

	if err := h2.DestroyDomain(hv.SystemCaller, hog.ID, "make room"); err != nil {
		t.Fatal(err)
	}
	rec, err := move()
	if err != nil {
		t.Fatal(err)
	}
	if r.ts.Manages(g.Dom) || !dst.Manages(rec.Dom) {
		t.Fatal("guest not handed over")
	}
	if rec.Cfg != g.Cfg {
		t.Fatalf("adopted config %+v, recorded %+v", rec.Cfg, g.Cfg)
	}
	if rec.Net == nil || !rec.Net.Connected() || rec.Blk == nil || !rec.Blk.Connected() {
		t.Fatal("migrated guest's devices not re-wired")
	}
}

func TestHVMGuestViaToolstack(t *testing.T) {
	r := newRig(t)
	defer r.env.Shutdown()
	g, err := r.create(t, toolstack.GuestConfig{Name: "hvm", Image: osimage.ImgGuestHVM, HVM: true, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Qemu == nil || g.QemuDom == 0 {
		t.Fatal("no qemu stub")
	}
	// The guest itself has no direct frontends; the QemuVM carries them.
	if g.Net != nil || g.Blk != nil {
		t.Fatal("HVM guest wired with PV frontends directly")
	}
	if g.Qemu.Net == nil || g.Qemu.Blk == nil {
		t.Fatal("qemu frontends missing")
	}
	// Destroy reaps both domains and frees the image.
	if err := r.destroy(t, g.Dom); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.Domain(g.QemuDom); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatal("qemu survived destroy")
	}
}
