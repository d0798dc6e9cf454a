// Package pciback implements the PCIBack shard (§5.3): the closest analogue
// Xoar has to Dom0. It initializes the hardware, enumerates the PCI bus,
// virtualizes the shared PCI configuration space for driver domains, and —
// once every device is running and no further config-space access is needed
// — can be destroyed entirely, removing a privileged component from the
// system's steady-state TCB.
package pciback

import (
	"fmt"

	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"

	hwpkg "xoar/internal/hw"
)

// perConfigOpCPU is the cost of proxying one config-space access.
const perConfigOpCPU = 10 * sim.Microsecond

// PCIBack is the PCI bus owner.
type PCIBack struct {
	H   *hv.Hypervisor
	Dom xtypes.DomID
	Bus *hwpkg.PCIBus
	XS  *xenstore.Conn

	devices   []hwpkg.Device
	destroyed bool

	ProxiedOps int64
}

// New constructs PCIBack in domain dom.
func New(h *hv.Hypervisor, dom xtypes.DomID, bus *hwpkg.PCIBus, xs *xenstore.Conn) *PCIBack {
	return &PCIBack{H: h, Dom: dom, Bus: bus, XS: xs}
}

// Start claims the PCI config space, enumerates the bus (the expensive
// hardware bring-up of Table 6.2), and publishes the inventory in XenStore
// so udev-style rules can request driver domains for each device (§5.2).
func (pb *PCIBack) Start(p *sim.Proc) error {
	if !pb.H.HasIOPorts(pb.Dom, "pci") {
		return fmt.Errorf("pciback: no PCI I/O-port access: %w", xtypes.ErrPerm)
	}
	if err := pb.Bus.ClaimConfigSpace(pb.Dom); err != nil {
		return err
	}
	devs, err := pb.Bus.Enumerate(p, pb.Dom)
	if err != nil {
		return err
	}
	pb.devices = devs
	for i, d := range devs {
		pb.XS.Write(fmt.Sprintf("/local/domain/%d/pci/dev-%d", pb.Dom, i),
			fmt.Sprintf("%s %s %s", d.Addr(), d.Class(), d.Name()))
	}
	return nil
}

// Devices returns the enumerated inventory.
func (pb *PCIBack) Devices() []hwpkg.Device { return pb.devices }

// DevicesOfClass filters the inventory by class.
func (pb *PCIBack) DevicesOfClass(c xtypes.DeviceClass) []hwpkg.Device {
	var out []hwpkg.Device
	for _, d := range pb.devices {
		if d.Class() == c {
			out = append(out, d)
		}
	}
	return out
}

// ProxyConfigAccess performs a config-space access on behalf of a driver
// domain during its device initialization. Only the domain holding the
// device (via passthrough assignment) may touch its config registers; the
// shared bus is multiplexed through this single component (§5.3).
func (pb *PCIBack) ProxyConfigAccess(p *sim.Proc, caller xtypes.DomID, addr xtypes.PCIAddr) error {
	if pb.destroyed {
		return fmt.Errorf("pciback: destroyed: %w", xtypes.ErrShutdown)
	}
	if err := pb.Bus.CheckAccess(caller, addr); err != nil {
		return err
	}
	pb.H.Compute(p, pb.Dom, perConfigOpCPU)
	if err := pb.Bus.ConfigAccess(pb.Dom, addr); err != nil {
		return err
	}
	pb.ProxiedOps++
	return nil
}

// SelfDestruct removes PCIBack once steady state is reached: config space is
// released and the domain exits, shrinking the set of privileged components
// (§5.3). Devices stay assigned to their driver domains; only new
// enumeration or hotplug would need a fresh PCIBack.
func (pb *PCIBack) SelfDestruct(p *sim.Proc) error {
	pb.destroyed = true
	pb.Bus.ReleaseConfigSpace(pb.Dom)
	return pb.H.SelfExit(pb.Dom)
}
