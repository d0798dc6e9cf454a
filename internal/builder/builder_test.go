package builder_test

import (
	"errors"
	"fmt"
	"testing"

	"xoar/internal/builder"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// newRig assembles a minimal platform around a Builder domain carrying the
// boot.go privilege set. The boot package cannot be imported here (it
// imports builder), so the rig mirrors its construction path by hand.
func newRig(t *testing.T) (*sim.Env, *hv.Hypervisor, *builder.Builder) {
	t.Helper()
	env := sim.NewEnv(42)
	h := hv.New(env, hw.NewMachine(env))
	h.EnforceShardIVC = true
	logic := xenstore.NewLogic(env, xenstore.NewState())

	bd, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{
		Name: "builder", MemMB: 64, Shard: true, OSImage: osimage.ImgBuilder,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = h.AssignPrivileges(hv.SystemCaller, bd.ID, hv.Assignment{
		Hypercalls: []xtypes.Hypercall{
			xtypes.HyperDomctlCreate, xtypes.HyperDomctlDestroy,
			xtypes.HyperDomctlPause, xtypes.HyperDomctlUnpause,
			xtypes.HyperDomctlMaxMem, xtypes.HyperDomctlPriv,
			xtypes.HyperMapForeign, xtypes.HyperSetParentTool,
			xtypes.HyperVMRollback, xtypes.HyperSetRestartPolicy,
			xtypes.HyperDelegateAdmin,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unpause(hv.SystemCaller, bd.ID); err != nil {
		t.Fatal(err)
	}
	b := builder.New(h, bd.ID, osimage.DefaultCatalog(), logic.Connect(bd.ID, true))
	env.Spawn("builder-serve", b.Serve)
	return env, h, b
}

// newShard creates an unpaused shard domain outside the Builder, standing
// in for a toolstack or the Bootstrapper.
func newShard(t *testing.T, h *hv.Hypervisor, name string, hcs ...xtypes.Hypercall) xtypes.DomID {
	t.Helper()
	d, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{
		Name: name, MemMB: 128, Shard: true, OSImage: osimage.ImgToolstack,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hcs) > 0 {
		if err := h.AssignPrivileges(hv.SystemCaller, d.ID, hv.Assignment{Hypercalls: hcs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Unpause(hv.SystemCaller, d.ID); err != nil {
		t.Fatal(err)
	}
	return d.ID
}

// run executes fn in a sim process and fails the test if it does not
// complete within d of virtual time.
func run(t *testing.T, env *sim.Env, d sim.Duration, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Spawn("test-step", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	env.RunFor(d)
	if !done {
		t.Fatal("sim step did not complete")
	}
}

func TestQemuForForeignGuestRefused(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts0 := newShard(t, h, "ts0")
	ts1 := newShard(t, h, "ts1")

	var g xtypes.DomID
	run(t, env, 60*sim.Second, func(p *sim.Proc) {
		var err error
		g, err = b.Submit(p, builder.Request{Requester: ts0, Name: "g", Image: osimage.ImgGuestPV})
		if err != nil {
			t.Errorf("guest build: %v", err)
		}
	})

	// ts1 asks for DMA rights over ts0's guest: refused, nothing built.
	before := b.Builds
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		_, err := b.Submit(p, builder.Request{Requester: ts1, Name: "evil-qemu", QemuFor: g})
		if !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("foreign qemu build: %v", err)
		}
	})
	if b.Builds != before || b.Denied == 0 {
		t.Fatalf("denied build altered state: builds %d denied %d", b.Builds, b.Denied)
	}

	// The parenting toolstack gets its device model, wired to exactly its
	// guest.
	var q xtypes.DomID
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		var err error
		q, err = b.Submit(p, builder.Request{Requester: ts0, Name: "g-qemu", QemuFor: g})
		if err != nil {
			t.Errorf("qemu build: %v", err)
		}
	})
	qd, err := h.Domain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qd.IsShard() || qd.ParentTool() != ts0 {
		t.Fatalf("qemu shard=%v parent=%v", qd.IsShard(), qd.ParentTool())
	}
	if err := h.MapForeign(q, g, 0); err != nil {
		t.Fatalf("qemu mapping its guest: %v", err)
	}
	if err := h.MapForeign(q, ts1, 0); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("qemu mapping a foreign domain: %v", err)
	}
}

func TestUnknownImageRejected(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		_, err := b.Submit(p, builder.Request{Requester: ts, Name: "bad", Image: "evil-kernel"})
		if !errors.Is(err, xtypes.ErrNotFound) {
			t.Errorf("unknown image: %v", err)
		}
	})
}

func TestPrivilegedBuildRequiresAuthorization(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		_, err := b.Submit(p, builder.Request{
			Requester: ts, Name: "rogue-shard", Image: osimage.ImgNetBack, Shard: true,
		})
		if !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("unauthorized shard build: %v", err)
		}
	})
	b.Authorize(ts)
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		dom, err := b.Submit(p, builder.Request{
			Requester: ts, Name: "shard", Image: osimage.ImgNetBack, Shard: true,
		})
		if err != nil {
			t.Errorf("authorized shard build: %v", err)
			return
		}
		if d, derr := h.Domain(dom); derr != nil || !d.IsShard() {
			t.Errorf("built domain not a shard: %v %v", d, derr)
		}
	})
}

func TestSubmitSerializedFIFO(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")

	const n = 4
	doms := make([]xtypes.DomID, n)
	times := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			dom, err := b.Submit(p, builder.Request{
				Requester: ts, Name: fmt.Sprintf("g-%d", i), Image: osimage.ImgQemu,
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			doms[i] = dom
			times[i] = p.Now()
		})
	}
	env.RunFor(60 * sim.Second)
	for i := 1; i < n; i++ {
		// DomIDs are allocated in build order: FIFO means ascending.
		if doms[i] <= doms[i-1] {
			t.Fatalf("builds out of submission order: %v", doms)
		}
		// Serve is serialized: completions are strictly spaced, never
		// batched at one instant.
		if times[i] <= times[i-1] {
			t.Fatalf("concurrent builds overlapped: %v", times)
		}
	}
	if b.Builds != n {
		t.Fatalf("builds = %d, want %d", b.Builds, n)
	}
}

// fakeComp is a minimal Restartable for engine tests.
type fakeComp struct {
	dom      xtypes.DomID
	restarts int
}

func (c *fakeComp) DomID() xtypes.DomID            { return c.dom }
func (c *fakeComp) Name() string                   { return "fake" }
func (c *fakeComp) Restart(p *sim.Proc, fast bool) { c.restarts++ }

func TestRestartEngineRollsBackDelegatedShard(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	bs := newShard(t, h, "bootstrap", xtypes.HyperDelegateAdmin)
	b.Authorize(bs)

	var shard xtypes.DomID
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		var err error
		shard, err = b.Submit(p, builder.Request{
			Requester: bs, Name: "netback", Image: osimage.ImgNetBack, Shard: true,
			Privileges: hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot}},
		})
		if err != nil {
			t.Errorf("shard build: %v", err)
		}
	})
	// Boot-sequence handoff: the shard is delegated to the Builder, then
	// checkpoints itself once initialized.
	if err := h.Delegate(bs, shard, b.Dom()); err != nil {
		t.Fatal(err)
	}
	if !b.Administers(shard) {
		t.Fatal("builder does not administer the delegated shard")
	}
	if err := h.VMSnapshot(shard); err != nil {
		t.Fatal(err)
	}

	// Scribble on the shard's memory, then roll it back.
	d, err := h.Domain(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mem.Write(3, []byte("corrupted state")); err != nil {
		t.Fatal(err)
	}
	if d.Mem.DirtyPages() == 0 {
		t.Fatal("write did not dirty the shard")
	}
	run(t, env, sim.Second, func(p *sim.Proc) {
		restored, rerr := b.Rollback(p, shard)
		if rerr != nil || restored == 0 {
			t.Errorf("rollback: restored=%d err=%v", restored, rerr)
		}
	})
	if d.Mem.DirtyPages() != 0 {
		t.Fatal("rollback left dirty pages")
	}

	// A shard never delegated to the Builder cannot be touched.
	other := newShard(t, h, "other")
	run(t, env, sim.Second, func(p *sim.Proc) {
		if _, rerr := b.Rollback(p, other); !errors.Is(rerr, xtypes.ErrPerm) {
			t.Errorf("rollback of foreign shard: %v", rerr)
		}
	})
	if err := b.SetRestartPolicy(&fakeComp{dom: other}, snapshot.Policy{
		Kind: snapshot.PolicyTimer, Interval: sim.Second,
	}); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("policy on foreign shard: %v", err)
	}

	// Under a timer policy the engine microreboots the shard on its own.
	comp := &fakeComp{dom: shard}
	if err := b.SetRestartPolicy(comp, snapshot.Policy{
		Kind: snapshot.PolicyTimer, Interval: sim.Second,
	}); err != nil {
		t.Fatal(err)
	}
	env.RunFor(5 * sim.Second)
	stats, ok := b.RestartStats(shard)
	if !ok || stats.Restarts < 3 || comp.restarts < 3 {
		t.Fatalf("timer restarts: stats=%+v comp=%d", stats, comp.restarts)
	}

	// Crash-and-rebuild: the domain is gone, Recover builds a fresh one
	// from the recorded request, parented and snapshotted by the Builder.
	if err := h.DestroyDomain(hv.SystemCaller, shard, "driver crash"); err != nil {
		t.Fatal(err)
	}
	var newDom xtypes.DomID
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		var rerr error
		newDom, rerr = b.Recover(p, shard)
		if rerr != nil {
			t.Errorf("recover: %v", rerr)
		}
	})
	if newDom == shard {
		t.Fatal("recover returned the dead domain")
	}
	nd, err := h.Domain(newDom)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.IsShard() || nd.ParentTool() != b.Dom() {
		t.Fatalf("rebuilt shard=%v parent=%v", nd.IsShard(), nd.ParentTool())
	}
	// The replacement was snapshotted on build: it can roll back at once.
	run(t, env, sim.Second, func(p *sim.Proc) {
		if _, rerr := b.Rollback(p, newDom); rerr != nil {
			t.Errorf("rollback of rebuilt shard: %v", rerr)
		}
	})
	if b.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d", b.Rebuilds)
	}
}
