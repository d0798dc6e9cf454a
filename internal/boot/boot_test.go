package boot

import (
	"errors"
	"fmt"
	"testing"

	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/toolstack"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

func bootXoar(t *testing.T, opts Options) (*sim.Env, *hv.Hypervisor, *Platform) {
	t.Helper()
	return bootOn(t, false, opts)
}

func bootDom0(t *testing.T) (*sim.Env, *hv.Hypervisor, *Platform) {
	t.Helper()
	return bootOn(t, true, Options{})
}

func bootOn(t *testing.T, monolithic bool, opts Options) (*sim.Env, *hv.Hypervisor, *Platform) {
	t.Helper()
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	pl, err := Run(h, monolithic, opts)
	if err != nil {
		t.Fatalf("boot (monolithic=%v): %v", monolithic, err)
	}
	return env, h, pl
}

func TestRunOnTooSmallMachineFailsWithNoMem(t *testing.T) {
	for _, monolithic := range []bool{false, true} {
		env := sim.NewEnv(1)
		h := hv.New(env, hw.NewMachineWith(env, hw.MachineConfig{RAMMB: 512, NICs: 1, Disks: 1}))
		pl, err := Run(h, monolithic, Options{})
		if !errors.Is(err, xtypes.ErrNoMem) {
			t.Errorf("monolithic=%v: err = %v, want ErrNoMem", monolithic, err)
		}
		if pl != nil {
			t.Errorf("monolithic=%v: failed boot returned a platform", monolithic)
		}
		env.Shutdown()
	}
}

func TestXoarBootBringsUpAllComponents(t *testing.T) {
	env, h, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	if pl.Console == nil || !pl.Console.Serving() {
		t.Fatal("console not serving")
	}
	if len(pl.NetBacks) != 1 || !pl.NetBacks[0].Serving() {
		t.Fatal("netback not serving")
	}
	if len(pl.BlkBacks) != 1 || !pl.BlkBacks[0].Serving() {
		t.Fatal("blkback not serving")
	}
	if len(pl.Toolstacks) != 1 {
		t.Fatal("no toolstack")
	}
	// The bootstrapper is gone and the host is fine.
	if _, err := h.Domain(pl.BootstrapperDom); err == nil {
		t.Fatal("bootstrapper survived boot")
	}
	if h.CrashedHost {
		t.Fatal("host crashed during boot")
	}
	// Every live control-plane domain is a shard.
	for _, d := range h.Domains() {
		if !d.IsShard() {
			t.Fatalf("non-shard control domain %s", d.Name)
		}
	}
}

func TestXoarBootTimingsOrdering(t *testing.T) {
	env, _, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	tm := pl.Timings
	if tm.ConsoleReady <= 0 || tm.PingReady < tm.ConsoleReady || tm.Done < tm.PingReady {
		t.Fatalf("timings out of order: %+v", tm)
	}
}

func TestBootComparisonMatchesPaperShape(t *testing.T) {
	env1, _, xoar := bootXoar(t, Options{})
	defer env1.Shutdown()
	env2, _, dom0 := bootDom0(t)
	defer env2.Shutdown()

	consoleSpeedup := dom0.Timings.ConsoleReady.Seconds() / xoar.Timings.ConsoleReady.Seconds()
	pingSpeedup := dom0.Timings.PingReady.Seconds() / xoar.Timings.PingReady.Seconds()
	// Paper: 1.5x console, 1.15x ping. Accept the shape with slack.
	if consoleSpeedup < 1.25 || consoleSpeedup > 1.8 {
		t.Errorf("console speedup = %.2f (xoar %.1fs, dom0 %.1fs)", consoleSpeedup,
			xoar.Timings.ConsoleReady.Seconds(), dom0.Timings.ConsoleReady.Seconds())
	}
	if pingSpeedup < 1.02 || pingSpeedup > 1.4 {
		t.Errorf("ping speedup = %.2f (xoar %.1fs, dom0 %.1fs)", pingSpeedup,
			xoar.Timings.PingReady.Seconds(), dom0.Timings.PingReady.Seconds())
	}
	// Console must come up faster than ping in both profiles.
	if xoar.Timings.ConsoleReady > xoar.Timings.PingReady {
		t.Error("xoar console after ping")
	}
}

func TestSerializedBootSlower(t *testing.T) {
	env1, _, par := bootXoar(t, Options{})
	defer env1.Shutdown()
	env2, _, ser := bootXoar(t, Options{Serialize: true})
	defer env2.Shutdown()
	if ser.Timings.Done <= par.Timings.Done {
		t.Fatalf("serialized boot (%.1fs) not slower than parallel (%.1fs)",
			ser.Timings.Done.Seconds(), par.Timings.Done.Seconds())
	}
}

func TestDestroyPCIBackShrinksTCB(t *testing.T) {
	env, h, pl := bootXoar(t, Options{DestroyPCIBack: true})
	defer env.Shutdown()
	if _, err := h.Domain(pl.PCIBackDom); err == nil {
		t.Fatal("pciback survived")
	}
	if h.Machine.Bus.ConfigOwner() != xtypes.DomIDNone {
		t.Fatal("config space still owned")
	}
	// Devices stay with their driver domains.
	if h.Machine.Bus.AssignedTo(h.Machine.NICs()[0].Addr()) != pl.NetBacks[0].Dom {
		t.Fatal("NIC lost its assignment")
	}
}

func TestGuestLifecycleOnXoar(t *testing.T) {
	env, h, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	ts := pl.Toolstacks[0]
	var g *toolstack.Guest
	var err error
	env.Spawn("ops", func(p *sim.Proc) {
		g, err = ts.CreateVM(p, toolstack.GuestConfig{
			Name: "web", Image: osimage.ImgGuestPV, Net: true, Disk: true,
		})
		if err != nil {
			return
		}
		// Use both devices, then destroy.
		if werr := g.Blk.Write(p, 1<<20, true); werr != nil {
			err = werr
			return
		}
		err = ts.DestroyVM(p, g.Dom)
	})
	env.RunFor(120 * sim.Second)
	if err != nil {
		t.Fatalf("guest lifecycle: %v", err)
	}
	if _, derr := h.Domain(g.Dom); derr == nil {
		t.Fatal("guest survived destroy")
	}
	if ts.Created != 1 || ts.Destroyed != 1 {
		t.Fatalf("counters: %d/%d", ts.Created, ts.Destroyed)
	}
}

func TestGuestLifecycleOnDom0(t *testing.T) {
	env, _, pl := bootDom0(t)
	defer env.Shutdown()
	ts := pl.Toolstacks[0]
	var err error
	env.Spawn("ops", func(p *sim.Proc) {
		g, cerr := ts.CreateVM(p, toolstack.GuestConfig{
			Name: "web", Image: osimage.ImgGuestPV, Net: true, Disk: true,
		})
		if cerr != nil {
			err = cerr
			return
		}
		err = g.Blk.Write(p, 1<<20, true)
	})
	env.RunFor(120 * sim.Second)
	if err != nil {
		t.Fatalf("dom0 guest lifecycle: %v", err)
	}
}

func TestConstraintGroupsEnforced(t *testing.T) {
	env, _, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	ts := pl.Toolstacks[0]
	var err2 error
	env.Spawn("ops", func(p *sim.Proc) {
		if _, err := ts.CreateVM(p, toolstack.GuestConfig{
			Name: "tenantA-1", Image: osimage.ImgGuestPV, Net: true, ConstraintTag: "tenantA",
		}); err != nil {
			err2 = err
			return
		}
		// One NetBack, already locked to tenantA: a tenantB VM must fail.
		_, err2 = ts.CreateVM(p, toolstack.GuestConfig{
			Name: "tenantB-1", Image: osimage.ImgGuestPV, Net: true, ConstraintTag: "tenantB",
		})
	})
	env.RunFor(120 * sim.Second)
	if err2 == nil {
		t.Fatal("constraint violation allowed")
	}
}

func TestCustomKernelUsesBootloader(t *testing.T) {
	env, h, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	ts := pl.Toolstacks[0]
	var dom xtypes.DomID
	var err error
	env.Spawn("ops", func(p *sim.Proc) {
		g, cerr := ts.CreateVM(p, toolstack.GuestConfig{
			Name: "byok", Image: "my-own-kernel", CustomKernel: true,
		})
		if cerr != nil {
			err = cerr
			return
		}
		dom = g.Dom
	})
	env.RunFor(120 * sim.Second)
	if err != nil {
		t.Fatalf("custom kernel build: %v", err)
	}
	d, derr := h.Domain(dom)
	if derr != nil {
		t.Fatal(derr)
	}
	if d.Cfg.OSImage != osimage.ImgBootloader {
		t.Fatalf("custom kernel booted image %q", d.Cfg.OSImage)
	}
}

func TestUnknownImageRejectedWithoutCustomFlag(t *testing.T) {
	env, _, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	ts := pl.Toolstacks[0]
	var err error
	env.Spawn("ops", func(p *sim.Proc) {
		_, err = ts.CreateVM(p, toolstack.GuestConfig{Name: "bad", Image: "evil-kernel"})
	})
	env.RunFor(60 * sim.Second)
	if err == nil {
		t.Fatal("unknown image accepted")
	}
}

// TestDestroyReapsXenStoreTree exercises the OnDestroy reaping hook:
// destroying a guest removes its /local/domain/<id> subtree, and the reap
// does not perturb a later microreboot-and-reconnect of the surviving guest.
func TestDestroyReapsXenStoreTree(t *testing.T) {
	env, h, pl := bootXoar(t, Options{})
	defer env.Shutdown()
	ts := pl.Toolstacks[0]
	nb := pl.NetBacks[0]

	var g1, g2 *toolstack.Guest
	var err error
	env.Spawn("guests", func(p *sim.Proc) {
		if g1, err = ts.CreateVM(p, toolstack.GuestConfig{
			Name: "web1", Image: osimage.ImgGuestPV, Net: true, Disk: true,
		}); err != nil {
			return
		}
		g2, err = ts.CreateVM(p, toolstack.GuestConfig{
			Name: "web2", Image: osimage.ImgGuestPV, Net: true, Disk: true,
		})
	})
	env.RunFor(120 * sim.Second)
	if err != nil {
		t.Fatalf("guests: %v", err)
	}

	base := fmt.Sprintf("/local/domain/%d", g1.Dom)
	admin := pl.XenStoreLogic.Connect(pl.XSLogicDom, true)
	if _, rerr := admin.Read(xenstore.TxNone, base+"/name"); rerr != nil {
		t.Fatalf("guest tree missing before destroy: %v", rerr)
	}
	env.Spawn("destroy", func(p *sim.Proc) { err = ts.DestroyVM(p, g1.Dom) })
	env.RunFor(30 * sim.Second)
	if err != nil {
		t.Fatalf("destroy: %v", err)
	}
	if _, rerr := admin.Read(xenstore.TxNone, base+"/name"); !errors.Is(rerr, xtypes.ErrNotFound) {
		t.Fatalf("guest tree survived destroy: %v", rerr)
	}

	// Microreboot NetBack; the surviving guest must renegotiate and move
	// traffic.
	if merr := pl.Builder.SetRestartPolicy(nb, snapshot.Policy{Kind: snapshot.PolicyPerRequest}); merr != nil {
		t.Fatal(merr)
	}
	var res guest.FetchResult
	env.Spawn("reconnect", func(p *sim.Proc) {
		if err = pl.Engine.RequestRestart(p, nb.Dom); err != nil {
			return
		}
		vm := &guest.VM{H: h, Dom: g2.Dom, Net: g2.Net, Blk: g2.Blk, NetB: g2.NetB, BlkB: g2.BlkB}
		res = vm.Fetch(p, 8<<20, guest.SinkNull)
	})
	env.RunFor(120 * sim.Second)
	if err != nil {
		t.Fatalf("restart+fetch: %v", err)
	}
	if res.Bytes != 8<<20 {
		t.Fatalf("fetch moved %d bytes, want %d", res.Bytes, 8<<20)
	}
	if st, ok := pl.Engine.Stats(nb.Dom); !ok || st.Restarts != 1 || st.Errors != 0 {
		t.Fatalf("restart stats: %+v (managed=%v)", st, ok)
	}
}

func TestBootTimesPrinted(t *testing.T) {
	env1, _, xoar := bootXoar(t, Options{})
	defer env1.Shutdown()
	env2, _, dom0 := bootDom0(t)
	defer env2.Shutdown()
	t.Logf("Table 6.2 — boot: dom0 console %.1fs ping %.1fs | xoar console %.1fs ping %.1fs",
		dom0.Timings.ConsoleReady.Seconds(), dom0.Timings.PingReady.Seconds(),
		xoar.Timings.ConsoleReady.Seconds(), xoar.Timings.PingReady.Seconds())
}
