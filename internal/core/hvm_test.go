package core

import (
	"errors"
	"testing"

	"xoar/internal/builder"
	"xoar/internal/seceval"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

func TestHVMGuestThroughQemuVM(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(GuestSpec{Name: "win", HVM: true, Net: true, Disk: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Qemu() == nil {
		t.Fatal("no device model attached")
	}
	qdom := g.rec.QemuDom

	// The stub domain exists, is a shard, and holds DMA rights over exactly
	// this guest.
	qd, err := pl.HV.Domain(qdom)
	if err != nil {
		t.Fatal(err)
	}
	if !qd.IsShard() {
		t.Fatal("QemuVM not a shard")
	}
	if err := pl.HV.MapForeign(qdom, g.Dom, 0); err != nil {
		t.Fatalf("qemu mapping its guest: %v", err)
	}
	pl.HV.UnmapForeign(qdom, g.Dom)

	// Emulated disk I/O flows through Qemu's PV frontend to BlkBack.
	before := pl.Boot.BlkBacks[0].DataPathStats().ReqDescs
	if err := g.EmulatedDiskWrite(1<<20, true); err != nil {
		t.Fatal(err)
	}
	if pl.Boot.BlkBacks[0].DataPathStats().ReqDescs <= before {
		t.Fatal("emulated I/O never reached the driver shard")
	}

	// Containment: a compromised device model cannot touch another guest.
	victim, err := pl.CreateGuest(GuestSpec{Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.HV.MapForeign(qdom, victim.Dom, 0); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("qemu escape: %v", err)
	}

	// The security analyzer anchors device-emulation CVEs to this QemuVM.
	an := seceval.NewAnalyzer(pl.Boot, seceval.Options{
		DeprivilegedGuests: true, Attacker: g.Dom, QemuOf: qdom,
	})
	rep := an.Run()
	if rep.ByOutcome[seceval.OutContained] != 7 {
		t.Fatalf("contained = %d", rep.ByOutcome[seceval.OutContained])
	}

	// Destroying the guest reaps the device model with it (Table 5.1).
	if err := pl.DestroyGuest(g); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.HV.Domain(qdom); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatal("QemuVM outlived its guest")
	}
}

func TestQemuBuildRefusedForForeignGuest(t *testing.T) {
	pl, err := New(XoarShards, Config{Seed: 13, Toolstacks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	// Toolstack 0 owns a guest; toolstack 1 asks the Builder for a QemuVM
	// over it — a privilege-escalation attempt (DMA rights over someone
	// else's guest) the Builder must refuse.
	g, err := pl.CreateGuest(GuestSpec{Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := pl.Boot.Toolstacks[1]
	var berr error
	if err := pl.RunWorkload(60*sim.Second, func(p *sim.Proc) {
		_, berr = pl.Boot.Builder.Submit(p, builder.Request{
			Requester: ts1.Dom, Name: "evil-qemu", QemuFor: g.Dom,
		})
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(berr, xtypes.ErrPerm) {
		t.Fatalf("foreign qemu build: %v", berr)
	}
}
