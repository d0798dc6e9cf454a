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
	env  *sim.Env
	name string
	addr xtypes.PCIAddr

	// Bandwidth is sustained sequential throughput in bytes/second.
	Bandwidth float64
	// SeekTime is the average penalty for a non-sequential operation.
	SeekTime sim.Duration
	// PerOp is controller/command overhead applied to every operation.
	PerOp sim.Duration

	arm *sim.Resource

	initialized bool
	initTime    sim.Duration

	// Counters.
	ReadBytes  int64
	WriteBytes int64
	Ops        int64
}

// DiskModel is a parameter preset for a storage-device generation. The zero
// value means "use the default model" (the paper testbed's 7200RPM SATA disk).
type DiskModel struct {
	// Driver is the device-name prefix ("sata" → "sata-0").
	Driver string
	// Bandwidth is sustained sequential throughput in bytes/second.
	Bandwidth float64
	// SeekTime is the penalty for a non-sequential operation.
	SeekTime sim.Duration
	// PerOp is controller/command overhead applied to every operation.
	PerOp sim.Duration
	// InitTime is the bring-up cost.
	InitTime sim.Duration
}

var (
	// DiskModelSATA7200 is the paper testbed's 7200RPM SATA disk.
	DiskModelSATA7200 = DiskModel{Driver: "sata", Bandwidth: 110e6, SeekTime: 8 * sim.Millisecond,
		PerOp: 60 * sim.Microsecond, InitTime: 2500 * sim.Millisecond}
	// DiskModelNVMe is a datacenter NVMe SSD: no rotational seek, a small
	// flash-translation penalty for random access, microsecond command cost.
	DiskModelNVMe = DiskModel{Driver: "nvme", Bandwidth: 3.2e9, SeekTime: 20 * sim.Microsecond,
		PerOp: 10 * sim.Microsecond, InitTime: 400 * sim.Millisecond}
)

// NewDiskModel returns a disk at addr built from a model preset.
func NewDiskModel(env *sim.Env, name string, addr xtypes.PCIAddr, m DiskModel) *Disk {
	if m == (DiskModel{}) {
		m = DiskModelSATA7200
	}
	return &Disk{
		env:       env,
		name:      name,
		addr:      addr,
		Bandwidth: m.Bandwidth,
		SeekTime:  m.SeekTime,
		PerOp:     m.PerOp,
		arm:       sim.NewResource(env, 1),
		initTime:  m.InitTime,
	}
}

// Addr implements Device.
func (d *Disk) Addr() xtypes.PCIAddr { return d.addr }

// Class implements Device.
func (d *Disk) Class() xtypes.DeviceClass { return xtypes.DevDisk }

// Name implements Device.
func (d *Disk) Name() string { return d.name }

// InitTime implements Device.
func (d *Disk) InitTime() sim.Duration { return d.initTime }

// Reset implements Device.
func (d *Disk) Reset(p *sim.Proc) {
	d.initialized = false
	p.Sleep(d.initTime)
	d.initialized = true
}

// Initialized reports whether the disk has been brought up.
func (d *Disk) Initialized() bool { return d.initialized }

// xferTime converts a transfer size to media time.
func (d *Disk) xferTime(bytes int) sim.Duration {
	return sim.Duration(float64(bytes) / d.Bandwidth * float64(sim.Second))
}

// Read performs a read of the given size. sequential selects whether the
// seek penalty applies.
func (d *Disk) Read(p *sim.Proc, bytes int, sequential bool) {
	d.io(p, bytes, sequential)
	d.ReadBytes += int64(bytes)
}

// Write performs a write of the given size.
func (d *Disk) Write(p *sim.Proc, bytes int, sequential bool) {
	d.io(p, bytes, sequential)
	d.WriteBytes += int64(bytes)
}

func (d *Disk) io(p *sim.Proc, bytes int, sequential bool) {
	cost := d.PerOp + d.xferTime(bytes)
	if !sequential {
		cost += d.SeekTime
	}
	d.arm.Use(p, cost)
	d.Ops++
}

// Serial is the physical serial port. Output is captured into a log so the
// console path is observable in tests and examples. Writes are effectively
// free: the models that matter (boot, consoles) are not serial-bound.
type Serial struct {
	env *sim.Env
	log []string
	// InputVIRQ subscribers are modelled at the hypervisor layer; hw only
	// stores the output side.
}

// NewSerial returns a serial port.
func NewSerial(env *sim.Env) *Serial { return &Serial{env: env} }

// WriteLine appends a line to the captured output.
func (s *Serial) WriteLine(line string) { s.log = append(s.log, line) }

// Log returns the captured output.
func (s *Serial) Log() []string { return s.log }
