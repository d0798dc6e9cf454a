package seceval

import (
	"xoar/internal/boot"
	"xoar/internal/hv"
	"xoar/internal/xtypes"
)

// CapabilityProbe complements the static analyzer with a *dynamic* check: it
// assumes a component is fully compromised — the attacker executes with that
// domain's identity — and actually attempts a battery of hostile operations
// against the live hypervisor, recording which succeed. Where the analyzer
// reasons over the privilege graph, the probe exercises the enforcement
// paths themselves, so a regression in any check shows up as a capability
// the paper says must not exist.
type CapabilityProbe struct {
	// Capabilities actually obtained:
	MapVictimMemory  bool // mapped another guest's memory
	CreatedDomain    bool // created a new domain
	DestroyedVictim  bool // destroyed another guest
	GrantedToVictim  bool // set up fresh IVC to an unlinked guest
	RolledBackOthers bool // rolled back another component
	TookPCIDevice    bool // stole a passthrough device
	EscalatedSelf    bool // granted itself new privileges
}

// Probe runs the battery from component against victim on the booted
// platform. Successful state changes are reverted, so probing does not
// perturb later experiments beyond audit-log entries.
func Probe(pl *boot.Platform, component, victim xtypes.DomID) CapabilityProbe {
	h := pl.HV
	var res CapabilityProbe

	if err := h.MapForeign(component, victim, 0); err == nil {
		res.MapVictimMemory = true
		h.UnmapForeign(component, victim)
	}
	if d, err := h.CreateDomain(component, hv.DomainConfig{Name: "implant", MemMB: 16}); err == nil {
		res.CreatedDomain = true
		h.DestroyDomain(component, d.ID, "probe cleanup")
	}
	if err := h.DestroyDomain(component, victim, "probe"); err == nil {
		res.DestroyedVictim = true
	}
	// Fresh IVC to a guest never linked to this component. (A shard's
	// existing clients are legitimate reach, not escalation; the caller
	// passes a victim that is not a client.)
	if _, err := h.Grant(component, victim, 0, false); err == nil {
		d, derr := h.Domain(component)
		if derr != nil || !containsDom(d.Clients(), victim) {
			res.GrantedToVictim = true
		}
	}
	if _, err := h.VMRollback(component, pl.BuilderDom); err == nil {
		res.RolledBackOthers = true
	}
	if len(h.Machine.NICs()) > 0 {
		addr := h.Machine.NICs()[0].Addr()
		owner := h.Machine.Bus.AssignedTo(addr)
		if owner != component {
			if err := h.AssignPrivileges(component, component, hv.Assignment{PCIDevices: []xtypes.PCIAddr{addr}}); err == nil {
				res.TookPCIDevice = true
			}
		}
	}
	if err := h.AssignPrivileges(component, component, hv.Assignment{ControlAll: true}); err == nil {
		res.EscalatedSelf = true
	}
	return res
}

func containsDom(list []xtypes.DomID, d xtypes.DomID) bool {
	for _, x := range list {
		if x == d {
			return true
		}
	}
	return false
}

// Obtained lists the capabilities gained, for reports.
func (p CapabilityProbe) Obtained() []string {
	var out []string
	add := func(b bool, s string) {
		if b {
			out = append(out, s)
		}
	}
	add(p.MapVictimMemory, "map-victim-memory")
	add(p.CreatedDomain, "create-domain")
	add(p.DestroyedVictim, "destroy-victim")
	add(p.GrantedToVictim, "ivc-to-victim")
	add(p.RolledBackOthers, "rollback-others")
	add(p.TookPCIDevice, "steal-pci-device")
	add(p.EscalatedSelf, "self-escalation")
	return out
}
