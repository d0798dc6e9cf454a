package hw

import (
	"errors"
	"math"
	"testing"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

func TestMachineInventory(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	if len(m.CPUs) != 4 {
		t.Fatalf("cpus = %d", len(m.CPUs))
	}
	if len(m.NICs()) != 1 || len(m.Disks()) != 1 {
		t.Fatalf("nics=%d disks=%d", len(m.NICs()), len(m.Disks()))
	}
	devs := m.Bus.Devices()
	if len(devs) != 2 {
		t.Fatalf("devices = %d", len(devs))
	}
	// Address-ordered: disk at 00:1f before NIC at 02:00.
	if devs[0].Class() != xtypes.DevDisk || devs[1].Class() != xtypes.DevNIC {
		t.Fatalf("device order: %v %v", devs[0].Class(), devs[1].Class())
	}
}

func TestConfigSpaceSingleOwner(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	nicAddr := m.NICs()[0].Addr()
	if err := m.Bus.ConfigAccess(3, nicAddr); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("unclaimed config access: %v", err)
	}
	if err := m.Bus.ClaimConfigSpace(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.ClaimConfigSpace(4); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("second claim: %v", err)
	}
	if err := m.Bus.ConfigAccess(3, nicAddr); err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.ConfigAccess(4, nicAddr); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("non-owner access: %v", err)
	}
	m.Bus.ReleaseConfigSpace(3)
	if m.Bus.ConfigOwner() != xtypes.DomIDNone {
		t.Fatal("release failed")
	}
	// After release (PCIBack self-destructed) nobody can touch config space.
	if err := m.Bus.ConfigAccess(3, nicAddr); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("post-release access: %v", err)
	}
}

func TestDeviceAssignment(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	addr := m.NICs()[0].Addr()
	if err := m.Bus.Assign(addr, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.Assign(addr, 5); err != nil {
		t.Fatalf("re-assign to same dom: %v", err)
	}
	if err := m.Bus.Assign(addr, 6); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("double assign: %v", err)
	}
	if err := m.Bus.CheckAccess(5, addr); err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.CheckAccess(6, addr); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("IOMMU bypass: %v", err)
	}
	disk := m.Disks()[0].Addr()
	if err := m.Bus.Assign(disk, 6); err != nil {
		t.Fatal(err)
	}
	m.Bus.UnassignAll(5)
	if m.Bus.AssignedTo(addr) != xtypes.DomIDNone {
		t.Fatal("unassign failed")
	}
	if got := m.Bus.AssignedTo(disk); got != 6 {
		t.Fatalf("UnassignAll(5) released dom6's disk: now %v", got)
	}
	if err := m.Bus.Assign(xtypes.PCIAddr{Bus: 9}, 5); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("assign missing device: %v", err)
	}
}

func TestNICLineRate(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	nic := m.NICs()[0]
	const size = 117_000_000 // one second of line rate
	env.Spawn("tx", func(p *sim.Proc) {
		nic.Transmit(p, size)
	})
	end := env.RunAll()
	if math.Abs(end.Seconds()-1.0) > 0.01 {
		t.Fatalf("1s of traffic took %vs", end.Seconds())
	}
	if nic.TxBytes != size {
		t.Fatalf("txbytes = %d", nic.TxBytes)
	}
}

func TestNICFullDuplex(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	nic := m.NICs()[0]
	const size = 58_500_000 // half a second each way
	env.Spawn("tx", func(p *sim.Proc) { nic.Transmit(p, size) })
	env.Spawn("rx", func(p *sim.Proc) { nic.Receive(p, size) })
	end := env.RunAll()
	if math.Abs(end.Seconds()-0.5) > 0.01 {
		t.Fatalf("duplex transfer took %vs, want ~0.5s", end.Seconds())
	}
}

func TestNICTxSerializes(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	nic := m.NICs()[0]
	const size = 58_500_000
	env.Spawn("tx1", func(p *sim.Proc) { nic.Transmit(p, size) })
	env.Spawn("tx2", func(p *sim.Proc) { nic.Transmit(p, size) })
	end := env.RunAll()
	if math.Abs(end.Seconds()-1.0) > 0.01 {
		t.Fatalf("two tx took %vs, want ~1s", end.Seconds())
	}
}

func TestDiskSequentialBandwidth(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	disk := m.Disks()[0]
	const size = 110_000_000
	env.Spawn("w", func(p *sim.Proc) { disk.Write(p, size, true) })
	end := env.RunAll()
	if math.Abs(end.Seconds()-1.0) > 0.01 {
		t.Fatalf("sequential write took %vs", end.Seconds())
	}
}

func TestDiskSeekPenalty(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	disk := m.Disks()[0]
	var seqT, rndT sim.Duration
	env.Spawn("seq", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			disk.Read(p, 4096, true)
		}
		seqT = p.Now().Sub(start)
	})
	env.RunAll()
	env2 := sim.NewEnv(1)
	m2 := NewMachine(env2)
	disk2 := m2.Disks()[0]
	env2.Spawn("rnd", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			disk2.Read(p, 4096, false)
		}
		rndT = p.Now().Sub(start)
	})
	env2.RunAll()
	if rndT < seqT*20 {
		t.Fatalf("random (%v) not much slower than sequential (%v)", rndT, seqT)
	}
}

func TestDeviceResetCosts(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	nic := m.NICs()[0]
	var fullT sim.Duration
	env.Spawn("reset", func(p *sim.Proc) {
		t0 := p.Now()
		nic.Reset(p)
		fullT = p.Now().Sub(t0)
	})
	env.RunAll()
	if fullT != nic.InitTime() {
		t.Fatalf("reset cost %v, want %v", fullT, nic.InitTime())
	}
	if !nic.Initialized() {
		t.Fatal("nic not initialized after reset")
	}
}

func TestEnumerateRequiresOwnership(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	var devs []Device
	var enumErr error
	env.Spawn("pciback", func(p *sim.Proc) {
		if _, err := m.Bus.Enumerate(p, 7); !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("enumerate without claim: %v", err)
		}
		m.Bus.ClaimConfigSpace(7)
		devs, enumErr = m.Bus.Enumerate(p, 7)
	})
	end := env.RunAll()
	if enumErr != nil || len(devs) != 2 {
		t.Fatalf("enumerate: %v, %d devices", enumErr, len(devs))
	}
	if sim.Duration(end) < m.Bus.EnumTime {
		t.Fatalf("enumeration took %v, below EnumTime", sim.Duration(end))
	}
}

func TestSerialLog(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachine(env)
	m.Serial.WriteLine("login:")
	if got := m.Serial.Log(); len(got) != 1 || got[0] != "login:" {
		t.Fatalf("log = %v", got)
	}
}

func TestMachineConfigModels(t *testing.T) {
	env := sim.NewEnv(1)
	m := NewMachineWith(env, MachineConfig{
		CPUs: 4, RAMMB: 4096, NICs: 1, Disks: 1,
		NICModel: NICModel10G, DiskModel: DiskModelNVMe,
	})
	nic := m.NICs()[0]
	if nic.Name() != "ixgbe-0" || nic.LineRate != 1.17e9 {
		t.Fatalf("nic = %s rate %.0f", nic.Name(), nic.LineRate)
	}
	disk := m.Disks()[0]
	if disk.Name() != "nvme-0" || disk.Bandwidth != 3.2e9 {
		t.Fatalf("disk = %s bw %.0f", disk.Name(), disk.Bandwidth)
	}
	// The zero-valued config still builds the paper testbed.
	def := NewMachineWith(sim.NewEnv(1), MachineConfig{})
	if len(def.CPUs) != 4 || def.RAMMB != 4096 || len(def.NICs()) != 1 || len(def.Disks()) != 1 {
		t.Fatalf("zero config: %d CPUs, %dMB, %d NICs, %d disks", len(def.CPUs), def.RAMMB, len(def.NICs()), len(def.Disks()))
	}
	if def.NICs()[0].Name() != "tg3-0" || def.Disks()[0].Name() != "sata-0" {
		t.Fatalf("default models changed: %s %s", def.NICs()[0].Name(), def.Disks()[0].Name())
	}
	// A faster generation really is faster end to end.
	if nvme, sata := disk, def.Disks()[0]; nvme.xferTime(1<<20) >= sata.xferTime(1<<20) {
		t.Fatal("nvme not faster than sata")
	}
}
