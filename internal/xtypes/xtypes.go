// Package xtypes defines the identifiers, hypercall numbers, privilege flags
// and error values shared across the platform model. It sits at the bottom of
// the dependency graph so that the hypervisor, device substrates and control
// components can interoperate without import cycles.
package xtypes

import (
	"fmt"
	"strconv"
)

// DomID identifies a domain (virtual machine). DomID 0 is reserved: in the
// monolithic profile it is the control VM (Dom0); in Xoar no running domain
// keeps ID 0 after boot, which is itself one of the paper's points — several
// Xen code paths hard-code trust in domain 0 (§5.8).
type DomID uint32

// DomIDNone is the sentinel "no domain" value, used where Xen uses DOMID_INVALID.
const DomIDNone DomID = 0x7FFFFFFF

func (d DomID) String() string {
	var buf [len("dom4294967295")]byte
	return string(d.AppendTo(buf[:0]))
}

// AppendTo appends the domain's text form to b and returns the extended
// slice: "dom" and the decimal ID ("dom7"), or "dom-none" for DomIDNone.
// String and the audit log's hash chain both use it.
func (d DomID) AppendTo(b []byte) []byte {
	if d == DomIDNone {
		return append(b, "dom-none"...)
	}
	return strconv.AppendUint(append(b, "dom"...), uint64(d), 10)
}

// GrantRef names an entry in a domain's grant table.
type GrantRef uint32

// GrantRefInvalid is the sentinel invalid grant reference.
const GrantRefInvalid GrantRef = 0xFFFFFFFF

// Port names an event-channel endpoint within a domain.
type Port uint32

// PortInvalid is the sentinel invalid event-channel port.
const PortInvalid Port = 0xFFFFFFFF

// PageSize is the machine page granularity of the memory model, in bytes.
const PageSize = 4096

// PFN is a physical frame number in the machine memory model.
type PFN uint64

// Hypercall enumerates the hypervisor entry points. The set deliberately
// mirrors Xen's: roughly forty calls, several of which multiplex
// sub-operations (the paper notes this widening of the interface in §4.1).
type Hypercall uint32

const (
	// Unprivileged calls available to every guest.
	HyperSchedOp      Hypercall = iota // yield / block / shutdown
	HyperEvtchnOp                      // event-channel operations on own ports
	HyperGrantTableOp                  // grant own pages, map granted pages
	HyperConsoleIO                     // write to own virtual console
	HyperXenVersion                    // version probe
	HyperSetTimerOp                    // virtual timer
	HyperMemoryOpOwn                   // balloon own reservation
	HyperVCPUOp                        // manage own vCPUs

	// Privileged calls; each shard is whitelisted for the minimal subset.
	HyperDomctlCreate     // create a domain shell
	HyperDomctlDestroy    // destroy a domain
	HyperDomctlPause      // pause a domain
	HyperDomctlUnpause    // unpause a domain
	HyperDomctlMaxMem     // set a domain's memory reservation
	HyperDomctlPriv       // assign privileges to a domain (Builder only)
	HyperMapForeign       // map another domain's memory
	HyperPhysdevOp        // PCI config space / IRQ routing
	HyperAssignDevice     // give a domain direct device access
	HyperSetVIRQ          // route a VIRQ to a domain
	HyperVMSnapshot       // snapshot own memory image for microreboots
	HyperVMRollback       // roll a domain back to its snapshot
	HyperDelegateAdmin    // delegate admin privilege over a shard
	HyperIOPortAccess     // grant I/O-port ranges (console, PCI)
	HyperDebugOp          // debug-register access (attack surface, §6.2.1)
	HyperProfilingOp      // profiling/tracing (candidate for deprivileging, §7.1)
	HyperSetParentTool    // mark the parent toolstack of a new guest
	HyperReadConsoleRing  // read the physical console ring
	HyperSetRestartPolicy // configure microreboot policy for a shard

	NumHypercalls // sentinel: number of hypercall identifiers
)

var hypercallNames = map[Hypercall]string{
	HyperSchedOp:          "sched_op",
	HyperEvtchnOp:         "evtchn_op",
	HyperGrantTableOp:     "grant_table_op",
	HyperConsoleIO:        "console_io",
	HyperXenVersion:       "xen_version",
	HyperSetTimerOp:       "set_timer_op",
	HyperMemoryOpOwn:      "memory_op",
	HyperVCPUOp:           "vcpu_op",
	HyperDomctlCreate:     "domctl_create",
	HyperDomctlDestroy:    "domctl_destroy",
	HyperDomctlPause:      "domctl_pause",
	HyperDomctlUnpause:    "domctl_unpause",
	HyperDomctlMaxMem:     "domctl_max_mem",
	HyperDomctlPriv:       "domctl_set_privilege",
	HyperMapForeign:       "map_foreign",
	HyperPhysdevOp:        "physdev_op",
	HyperAssignDevice:     "assign_device",
	HyperSetVIRQ:          "set_virq",
	HyperVMSnapshot:       "vm_snapshot",
	HyperVMRollback:       "vm_rollback",
	HyperDelegateAdmin:    "delegate_admin",
	HyperIOPortAccess:     "ioport_access",
	HyperDebugOp:          "debug_op",
	HyperProfilingOp:      "profiling_op",
	HyperSetParentTool:    "set_parent_toolstack",
	HyperReadConsoleRing:  "read_console_ring",
	HyperSetRestartPolicy: "set_restart_policy",
}

func (h Hypercall) String() string {
	if s, ok := hypercallNames[h]; ok {
		return s
	}
	return fmt.Sprintf("hypercall(%d)", uint32(h))
}

// HypercallByName resolves a hypercall's wire name (its String form, e.g.
// "domctl_create") back to the identifier. This is the decode side of the
// generated capability manifests: grants are stored by wire name so the
// artifact survives renumbering.
func HypercallByName(name string) (Hypercall, bool) {
	for h, s := range hypercallNames {
		if s == name {
			return h, true
		}
	}
	return 0, false
}

// Privileged reports whether the hypercall requires an explicit whitelist
// entry. The first eight calls are the default unprivileged set available to
// all guests (§3.1: "in addition to the default unprivileged ones").
func (h Hypercall) Privileged() bool { return h >= HyperDomctlCreate && h < NumHypercalls }

// VIRQ enumerates virtual interrupt lines delivered by the hypervisor.
type VIRQ uint32

const (
	VIRQTimer   VIRQ = iota // periodic timer tick
	VIRQConsole             // physical serial console input
	VIRQDom                 // domain lifecycle events (for toolstacks)
	VIRQDebug
	NumVIRQs
)

func (v VIRQ) String() string {
	switch v {
	case VIRQTimer:
		return "virq-timer"
	case VIRQConsole:
		return "virq-console"
	case VIRQDom:
		return "virq-dom"
	case VIRQDebug:
		return "virq-debug"
	default:
		return fmt.Sprintf("virq(%d)", uint32(v))
	}
}

// PCIAddr identifies a device on the PCI bus, mirroring the
// assign_pci_device(PCI domain, bus, slot) API of Figure 3.1. The modeled
// host has one PCI domain, 0000.
type PCIAddr struct {
	Bus  uint8
	Slot uint8
}

func (a PCIAddr) String() string {
	return fmt.Sprintf("0000:%02x:%02x", a.Bus, a.Slot)
}

// DeviceClass categorizes PCI peripherals in the hardware model.
type DeviceClass uint8

const (
	DevNIC DeviceClass = iota
	DevDisk
	DevSerial
)

func (c DeviceClass) String() string {
	switch c {
	case DevNIC:
		return "nic"
	case DevDisk:
		return "disk"
	case DevSerial:
		return "serial"
	default:
		return "other"
	}
}
