package hw

import (
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Disk models a 7200RPM SATA disk behind an AHCI controller: a single arm
// (requests serialize), sequential bandwidth around 110MB/s, a rotational
// seek penalty for non-sequential operations, and a small per-command
// overhead. Spin-up dominates bring-up at boot.
type Disk struct {
	name string
	addr xtypes.PCIAddr
	arm  *sim.Resource

	initialized bool
}

// The paper testbed's 7200RPM SATA disk.
const (
	sataDriver = "sata" // device-name prefix: "sata-0"
	// sataBandwidth is sustained sequential throughput in bytes/second.
	sataBandwidth = 110e6
	// sataSeekTime is the average penalty for a non-sequential operation.
	sataSeekTime = 8 * sim.Millisecond
	// sataPerOp is controller/command overhead applied to every operation.
	sataPerOp    = 60 * sim.Microsecond
	sataInitTime = 2500 * sim.Millisecond
)

// NewDisk returns the testbed's SATA disk at addr.
func NewDisk(env *sim.Env, name string, addr xtypes.PCIAddr) *Disk {
	return &Disk{name: name, addr: addr, arm: sim.NewResource(env, 1)}
}

// Addr implements Device.
func (d *Disk) Addr() xtypes.PCIAddr { return d.addr }

// Class implements Device.
func (d *Disk) Class() xtypes.DeviceClass { return xtypes.DevDisk }

// Name implements Device.
func (d *Disk) Name() string { return d.name }

// InitTime implements Device.
func (d *Disk) InitTime() sim.Duration { return sataInitTime }

// Reset implements Device.
func (d *Disk) Reset(p *sim.Proc) {
	d.initialized = false
	p.Sleep(sataInitTime)
	d.initialized = true
}

// Initialized reports whether the disk has been brought up.
func (d *Disk) Initialized() bool { return d.initialized }

// xferTime converts a transfer size to media time.
func (d *Disk) xferTime(bytes int) sim.Duration {
	return sim.Duration(float64(bytes) / sataBandwidth * float64(sim.Second))
}

// Read performs a read of the given size. sequential selects whether the
// seek penalty applies.
func (d *Disk) Read(p *sim.Proc, bytes int, sequential bool) { d.io(p, bytes, sequential) }

// Write performs a write of the given size.
func (d *Disk) Write(p *sim.Proc, bytes int, sequential bool) { d.io(p, bytes, sequential) }

func (d *Disk) io(p *sim.Proc, bytes int, sequential bool) {
	cost := sataPerOp + d.xferTime(bytes)
	if !sequential {
		cost += sataSeekTime
	}
	d.arm.Use(p, cost)
}
