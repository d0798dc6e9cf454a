// Package hw models the physical machine: CPUs, the PCI bus and config
// space, network and disk controllers, and the serial port.
//
// The models are calibrated to the paper's testbed (Dell Precision T3500:
// quad-core Xeon W3520, Tigon 3 Gigabit NIC, 7200RPM SATA disk) closely
// enough that the evaluation's *shapes* — line-rate transfers, disk-bound
// Postmark, multi-second hardware bring-up during boot — reproduce. Absolute
// calibration beyond that is explicitly a non-goal (see DESIGN.md §5).
package hw

import (
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Device is a PCI peripheral.
type Device interface {
	Addr() xtypes.PCIAddr
	Class() xtypes.DeviceClass
	Name() string
	// InitTime is the full hardware bring-up cost (probe, reset, negotiate).
	InitTime() sim.Duration
	// Reset models a full device reset; it costs InitTime.
	Reset(p *sim.Proc)
}

// Machine is the physical host.
type Machine struct {
	Env    *sim.Env
	CPUs   []*sim.Resource // one slot each: physical cores
	Bus    *PCIBus
	Serial *Serial
	RAMMB  int
}

// MachineConfig describes the physical host to model. NICModel/DiskModel
// select hardware generations; their zero values mean the paper testbed's
// Gigabit NIC and 7200RPM SATA disk.
type MachineConfig struct {
	CPUs  int
	RAMMB int
	NICs  int
	Disks int

	NICModel  NICModel
	DiskModel DiskModel
}

// DefaultMachineConfig is the paper's testbed: quad-core, 4GB, one NIC, one
// disk.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{CPUs: 4, RAMMB: 4096, NICs: 1, Disks: 1}
}

// NewMachine builds the default testbed.
func NewMachine(env *sim.Env) *Machine {
	return NewMachineWith(env, DefaultMachineConfig())
}

// NewMachineWith builds a machine from cfg; the zero MachineConfig is the
// testbed. Hosts with several network or disk controllers get one
// driver-domain shard per controller at boot (Table 6.1's note on multiple
// NetBack/BlkBack instances).
func NewMachineWith(env *sim.Env, cfg MachineConfig) *Machine {
	if cfg == (MachineConfig{}) {
		cfg = DefaultMachineConfig()
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 4
	}
	if cfg.RAMMB <= 0 {
		cfg.RAMMB = 4096
	}
	m := &Machine{Env: env, RAMMB: cfg.RAMMB}
	for i := 0; i < cfg.CPUs; i++ {
		m.CPUs = append(m.CPUs, sim.NewResource(env, 1))
	}
	m.Bus = NewPCIBus(env)
	m.Serial = NewSerial(env)
	nm := cfg.NICModel
	if nm == (NICModel{}) {
		nm = NICModel1G
	}
	dm := cfg.DiskModel
	if dm == (DiskModel{}) {
		dm = DiskModelSATA7200
	}
	for i := 0; i < cfg.NICs; i++ {
		m.Bus.AddDevice(NewNICModel(env, fmt.Sprintf("%s-%d", nm.Driver, i), xtypes.PCIAddr{Bus: 2, Slot: uint8(i)}, nm))
	}
	for i := 0; i < cfg.Disks; i++ {
		m.Bus.AddDevice(NewDiskModel(env, fmt.Sprintf("%s-%d", dm.Driver, i), xtypes.PCIAddr{Bus: 0, Slot: uint8(28 + i)}, dm))
	}
	return m
}

// NICs returns every NIC on the bus.
func (m *Machine) NICs() []*NIC {
	var out []*NIC
	for _, d := range m.Bus.Devices() {
		if n, ok := d.(*NIC); ok {
			out = append(out, n)
		}
	}
	return out
}

// Disks returns every disk controller on the bus.
func (m *Machine) Disks() []*Disk {
	var out []*Disk
	for _, d := range m.Bus.Devices() {
		if n, ok := d.(*Disk); ok {
			out = append(out, n)
		}
	}
	return out
}

// PCIBus is the shared PCI bus: device inventory, config-space access and
// IOMMU-style assignment of devices to domains. The shared config space is
// why a single component (PCIBack) must multiplex access (§5.3).
type PCIBus struct {
	env     *sim.Env
	devices map[xtypes.PCIAddr]Device
	// assigned maps a device to the domain holding it via passthrough.
	assigned map[xtypes.PCIAddr]xtypes.DomID
	// configOwner is the single domain allowed to touch config space
	// (Dom0 or PCIBack). DomIDNone means unclaimed.
	configOwner xtypes.DomID
	// EnumTime is the cost of a full bus enumeration at boot.
	EnumTime sim.Duration
}

// NewPCIBus returns an empty bus.
func NewPCIBus(env *sim.Env) *PCIBus {
	return &PCIBus{
		env:         env,
		devices:     make(map[xtypes.PCIAddr]Device),
		assigned:    make(map[xtypes.PCIAddr]xtypes.DomID),
		configOwner: xtypes.DomIDNone,
		EnumTime:    1200 * sim.Millisecond,
	}
}

// AddDevice places a device on the bus.
func (b *PCIBus) AddDevice(d Device) { b.devices[d.Addr()] = d }

// Devices lists devices in address order.
func (b *PCIBus) Devices() []Device {
	var out []Device
	for _, d := range b.devices {
		out = append(out, d)
	}
	// Stable order: sort by address triple.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j].Addr(), out[j-1].Addr()); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b xtypes.PCIAddr) bool {
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	if a.Bus != b.Bus {
		return a.Bus < b.Bus
	}
	return a.Slot < b.Slot
}

// ClaimConfigSpace makes dom the single multiplexer of config-space access.
func (b *PCIBus) ClaimConfigSpace(dom xtypes.DomID) error {
	if b.configOwner != xtypes.DomIDNone && b.configOwner != dom {
		return fmt.Errorf("pci: config space owned by %v: %w", b.configOwner, xtypes.ErrInUse)
	}
	b.configOwner = dom
	return nil
}

// ReleaseConfigSpace releases ownership; used when PCIBack self-destructs
// after boot (§5.3). Devices remain assigned; only config-space access stops.
func (b *PCIBus) ReleaseConfigSpace(dom xtypes.DomID) {
	if b.configOwner == dom {
		b.configOwner = xtypes.DomIDNone
	}
}

// ConfigOwner reports the current config-space multiplexer.
func (b *PCIBus) ConfigOwner() xtypes.DomID { return b.configOwner }

// ConfigAccess validates a config-space read/write by dom. Only the owner
// may touch it; everything else must proxy through the owner.
func (b *PCIBus) ConfigAccess(dom xtypes.DomID, addr xtypes.PCIAddr) error {
	if dom != b.configOwner {
		return fmt.Errorf("pci: config access to %v by %v (owner %v): %w", addr, dom, b.configOwner, xtypes.ErrPerm)
	}
	if _, ok := b.devices[addr]; !ok {
		return fmt.Errorf("pci: config access to %v: %w", addr, xtypes.ErrNotFound)
	}
	return nil
}

// Assign passes a device through to dom. Fails if already assigned elsewhere,
// mirroring the availability check of Figure 3.1's assign_pci_device.
func (b *PCIBus) Assign(addr xtypes.PCIAddr, dom xtypes.DomID) error {
	if _, ok := b.devices[addr]; !ok {
		return fmt.Errorf("pci: assign %v: %w", addr, xtypes.ErrNotFound)
	}
	if cur, ok := b.assigned[addr]; ok && cur != dom {
		return fmt.Errorf("pci: %v assigned to %v: %w", addr, cur, xtypes.ErrInUse)
	}
	b.assigned[addr] = dom
	return nil
}

// UnassignAll releases every passthrough assignment dom holds, so a
// replacement driver domain can claim the devices.
func (b *PCIBus) UnassignAll(dom xtypes.DomID) {
	for addr, d := range b.assigned {
		if d == dom {
			delete(b.assigned, addr)
		}
	}
}

// AssignedTo reports the domain holding addr, or DomIDNone.
func (b *PCIBus) AssignedTo(addr xtypes.PCIAddr) xtypes.DomID {
	if d, ok := b.assigned[addr]; ok {
		return d
	}
	return xtypes.DomIDNone
}

// CheckAccess validates a data-path device access by dom: the device must be
// assigned to dom (IOMMU enforcement).
func (b *PCIBus) CheckAccess(dom xtypes.DomID, addr xtypes.PCIAddr) error {
	if b.assigned[addr] != dom {
		return fmt.Errorf("pci: device %v access by %v: %w", addr, dom, xtypes.ErrPerm)
	}
	return nil
}

// Enumerate models a full bus scan; it costs EnumTime plus each unassigned
// device's probe share. Returns the devices found.
func (b *PCIBus) Enumerate(p *sim.Proc, dom xtypes.DomID) ([]Device, error) {
	if err := b.ConfigAccess(dom, firstAddr(b)); len(b.devices) > 0 && err != nil {
		return nil, err
	}
	p.Sleep(b.EnumTime)
	return b.Devices(), nil
}

func firstAddr(b *PCIBus) xtypes.PCIAddr {
	for a := range b.devices {
		return a
	}
	return xtypes.PCIAddr{}
}
