package pciback

import (
	"errors"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

func setup(t *testing.T) (*sim.Env, *hv.Hypervisor, *PCIBack, *hv.Domain) {
	t.Helper()
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	pb, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "pciback", MemMB: 256, Shard: true})
	h.Unpause(hv.SystemCaller, pb.ID)
	h.GrantIOPorts(hv.SystemCaller, pb.ID, "pci")
	nb, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "netback", MemMB: 128, Shard: true})
	h.Unpause(hv.SystemCaller, nb.ID)
	logic := xenstore.NewLogic(xenstore.NewState())
	p := New(h, pb.ID, machine.Bus, logic.Connect(pb.ID, true))
	return env, h, p, nb
}

func TestStartEnumerates(t *testing.T) {
	env, _, pb, _ := setup(t)
	var err error
	env.Spawn("boot", func(p *sim.Proc) { err = pb.Start(p) })
	end := env.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Devices()) != 2 {
		t.Fatalf("devices = %d", len(pb.Devices()))
	}
	if sim.Duration(end) < pb.Bus.EnumTime {
		t.Fatalf("enumeration too fast: %v", sim.Duration(end))
	}
	if nicOf(pb) == (xtypes.PCIAddr{}) {
		t.Fatal("NIC not classified")
	}
	// Inventory published in XenStore.
	if _, err := pb.XS.Read("/local/domain/0/pci/dev-0"); err != nil {
		t.Fatalf("xenstore inventory: %v", err)
	}
}

func TestSelfDestructLeavesDevicesAssigned(t *testing.T) {
	env, h, pb, nb := setup(t)
	env.Spawn("test", func(p *sim.Proc) {
		pb.Start(p)
		nicAddr := nicOf(pb)
		h.AssignPrivileges(hv.SystemCaller, nb.ID, hv.Assignment{PCIDevices: []xtypes.PCIAddr{nicAddr}})
		if err := pb.SelfDestruct(p); err != nil {
			t.Error(err)
			return
		}
		// The domain is gone, the host is fine, the NIC stays with NetBack.
		if _, err := h.Domain(pb.Dom); !errors.Is(err, xtypes.ErrNoDomain) {
			t.Error("pciback domain survived")
		}
		if h.CrashedHost {
			t.Error("self-destruct crashed host")
		}
		if pb.Bus.AssignedTo(nicAddr) != nb.ID {
			t.Error("device assignment lost")
		}
		// Config space is released — steady state needs no config access.
		if err := pb.Bus.ConfigAccess(pb.Dom, nicAddr); !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("config access after destruct: %v", err)
		}
	})
	env.RunAll()
}

func TestStartRequiresPorts(t *testing.T) {
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	d, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "pciback", MemMB: 256, Shard: true})
	h.Unpause(hv.SystemCaller, d.ID)
	logic := xenstore.NewLogic(xenstore.NewState())
	pb := New(h, d.ID, machine.Bus, logic.Connect(d.ID, true))
	var err error
	env.Spawn("boot", func(p *sim.Proc) { err = pb.Start(p) })
	env.RunAll()
	if !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("start without pci ports: %v", err)
	}
}

// nicOf returns the address of the NIC in pb's inventory, or the zero
// address if it has none.
func nicOf(pb *PCIBack) xtypes.PCIAddr {
	for _, d := range pb.Devices() {
		if d.Class() == xtypes.DevNIC {
			return d.Addr()
		}
	}
	return xtypes.PCIAddr{}
}
