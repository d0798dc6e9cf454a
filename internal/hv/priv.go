package hv

import (
	"fmt"

	"xoar/internal/grant"
	"xoar/internal/mm"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Assignment is the Figure 3.1 privilege-assignment block from a shard's
// config file: devices to pass through, privileged hypercalls to whitelist,
// and guests to delegate administration to.
type Assignment struct {
	PCIDevices []xtypes.PCIAddr   // assign_pci_device(domain, bus, slot)
	Hypercalls []xtypes.Hypercall // permit_hypercall(hypercall_id)
	DelegateTo []xtypes.DomID     //xoarlint:allow(unused) gate: Figure 3.1's allow_delegation; deleting it drops Domain.delegates from AssignPrivileges's row in PRIVMATRIX.json
	ControlAll bool               // monolithic Dom0 only
	IOPorts    []string           // named I/O-port ranges ("console", "pci")
}

// AssignPrivileges applies an assignment to target. Requires HyperDomctlPriv
// — held only by the Builder (and Dom0 in the monolithic profile). Extra
// privileges may only be attached to shards; granting them to a plain guest
// fails, which is the heart of the shard abstraction (§3).
func (h *Hypervisor) AssignPrivileges(caller, target xtypes.DomID, a Assignment) error {
	if _, err := h.check(caller, xtypes.HyperDomctlPriv); err != nil {
		return err
	}
	d, err := h.Domain(target)
	if err != nil {
		return err
	}
	// Only the Xoar profile restricts privilege to shards; stock Xen has no
	// shard concept and Dom0 takes everything.
	needsPriv := a.ControlAll || len(a.Hypercalls) > 0 || len(a.PCIDevices) > 0 || len(a.DelegateTo) > 0
	if h.EnforceShardIVC && needsPriv && !d.Cfg.Shard {
		return h.deny(fmt.Errorf("hv: privileges for non-shard %v(%s): %w", target, d.Name, xtypes.ErrNotShard))
	}
	for _, addr := range a.PCIDevices {
		if err := h.Machine.Bus.Assign(addr, target); err != nil {
			return err
		}
		h.emit("assign-device", target, addr.String())
	}
	for _, hc := range a.Hypercalls {
		if d.priv.Hypercalls == nil {
			d.priv.Hypercalls = make(map[xtypes.Hypercall]bool)
		}
		d.priv.Hypercalls[hc] = true
		h.emit("permit-hypercall", target, hc.String())
	}
	for _, g := range a.DelegateTo {
		if d.delegates == nil {
			d.delegates = make(map[xtypes.DomID]bool)
		}
		d.delegates[g] = true
		h.emitDom("delegate", target, g)
	}
	for _, r := range a.IOPorts {
		if d.ioPorts == nil {
			d.ioPorts = make(map[string]bool)
		}
		d.ioPorts[r] = true
		h.emit("grant-ioports", target, r)
	}
	if a.ControlAll {
		d.priv.ControlAll = true
		h.emit("control-all", target, "")
	}
	return nil
}

// Delegate grants admin rights over shard to grantee at runtime; the caller
// must itself control the shard. Requires HyperDelegateAdmin.
func (h *Hypervisor) Delegate(caller, shard, grantee xtypes.DomID) error {
	d, err := h.gate(caller, xtypes.HyperDelegateAdmin, shard)
	if err != nil {
		return err
	}
	if !d.Cfg.Shard {
		return h.deny(fmt.Errorf("hv: delegate non-shard %v: %w", shard, xtypes.ErrNotShard))
	}
	if d.delegates == nil {
		d.delegates = make(map[xtypes.DomID]bool)
	}
	d.delegates[grantee] = true
	h.emitDom("delegate", shard, grantee)
	return nil
}

// SetParentTool marks tool as the parent toolstack of guest; subsequent
// VM-management hypercalls on guest are audited against this flag (§5.6).
// Requires HyperSetParentTool (Builder only).
func (h *Hypervisor) SetParentTool(caller, guest, tool xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperSetParentTool); err != nil {
		return err
	}
	d, err := h.Domain(guest)
	if err != nil {
		return err
	}
	d.parentTool = tool
	h.emitDom("set-parent", guest, tool)
	return nil
}

// SetPrivilegedFor gives vm limited privileges over target's memory — the
// flag added for QEMU stub domains, which need DMA access to exactly one
// guest (§5.6). Requires HyperDomctlPriv.
func (h *Hypervisor) SetPrivilegedFor(caller, vm, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlPriv); err != nil {
		return err
	}
	d, err := h.Domain(vm)
	if err != nil {
		return err
	}
	if _, err := h.Domain(target); err != nil {
		return err
	}
	if d.privilegedFor == nil {
		d.privilegedFor = make(map[xtypes.DomID]bool)
	}
	d.privilegedFor[target] = true
	h.emitDom("privileged-for", vm, target)
	return nil
}

// LinkShardClient authorizes guest to consume shard's service. The caller
// must control the shard (its toolstack, via delegation). The hypervisor
// then permits grant/evtchn setup between the pair. A toolstack can only use
// shards delegated to it (§5.6).
func (h *Hypervisor) LinkShardClient(caller, shard, guest xtypes.DomID) error {
	d, err := h.Domain(shard)
	if err != nil {
		return err
	}
	if h.EnforceShardIVC && !d.Cfg.Shard {
		return h.deny(fmt.Errorf("hv: link client to non-shard %v: %w", shard, xtypes.ErrNotShard))
	}
	// A shard may not curate its own client list: controls() counts every
	// domain as controlling itself, but link rights belong to an external
	// controller (the parent toolstack, or a delegate). Without this check a
	// compromised shard could link any guest to itself and then pass the IVC
	// policy for grant/evtchn setup against that guest — found by the
	// hypercall-sequence fuzzer. Only meaningful under the Xoar IVC policy:
	// monolithic Dom0 is both toolstack and backend and links to itself.
	if h.EnforceShardIVC && caller == shard && caller != SystemCaller {
		return h.deny(fmt.Errorf("hv: link %v->%v by the shard itself: %w", guest, shard, xtypes.ErrPerm))
	}
	if !h.controls(caller, d) {
		return h.deny(fmt.Errorf("hv: link %v->%v by %v: %w", guest, shard, caller, xtypes.ErrNotDelegated))
	}
	if d.clients == nil {
		d.clients = make(map[xtypes.DomID]bool)
	}
	d.clients[guest] = true
	h.emitDom("link-shard", shard, guest)
	return nil
}

// UnlinkShardClient revokes a client link.
func (h *Hypervisor) UnlinkShardClient(caller, shard, guest xtypes.DomID) error {
	d, err := h.Domain(shard)
	if err != nil {
		return err
	}
	// Mirror LinkShardClient's shard requirement: unlinking a non-shard is
	// meaningless, but it used to succeed as a no-op and emit a bogus
	// unlink-shard audit record against a plain guest — noise that corrupts
	// DependentsOf interval bookkeeping (found by the hypercall-sequence
	// fuzzer).
	if h.EnforceShardIVC && !d.Cfg.Shard {
		return h.deny(fmt.Errorf("hv: unlink client from non-shard %v: %w", shard, xtypes.ErrNotShard))
	}
	// Same self-control exclusion as LinkShardClient: a compromised shard
	// unlinking its own clients would close their audit exposure windows,
	// hiding the compromise interval from DependentsOf.
	if h.EnforceShardIVC && caller == shard && caller != SystemCaller {
		return h.deny(fmt.Errorf("hv: unlink %v->%v by the shard itself: %w", guest, shard, xtypes.ErrPerm))
	}
	if !h.controls(caller, d) {
		return h.deny(fmt.Errorf("hv: unlink %v->%v by %v: %w", guest, shard, caller, xtypes.ErrPerm))
	}
	delete(d.clients, guest)
	// The log's interval index keys on this record to close the guest's
	// exposure window; without it DependentsOf kept reporting unlinked
	// clients as dependents forever.
	h.emitDom("unlink-shard", shard, guest)
	return nil
}

// ivcAllowed applies the Xoar sharing policy to an IVC pair (§5.6):
// endpoints may communicate when one is a shard and the other is either a
// linked client or another shard. With enforcement off (stock Xen) anything
// goes.
func (h *Hypervisor) ivcAllowed(a, b xtypes.DomID) error {
	if !h.EnforceShardIVC || a == b {
		return nil
	}
	da, err := h.Domain(a)
	if err != nil {
		return err
	}
	db, err := h.Domain(b)
	if err != nil {
		return err
	}
	if da.Cfg.Shard && db.Cfg.Shard {
		return nil
	}
	if da.Cfg.Shard && da.clients[b] {
		return nil
	}
	if db.Cfg.Shard && db.clients[a] {
		return nil
	}
	if !da.Cfg.Shard && !db.Cfg.Shard {
		// Guest↔guest probes are denials too: leaving them uncounted let an
		// adversarial guest sweep the IVC surface without a trace in the
		// denial counter (found by the hypercall-sequence fuzzer).
		return h.deny(fmt.Errorf("hv: ivc %v<->%v between non-shards: %w", a, b, xtypes.ErrNotShard))
	}
	return h.deny(fmt.Errorf("hv: ivc %v<->%v: %w", a, b, xtypes.ErrNotDelegated))
}

// RevokeHypercall removes a previously permitted hypercall from target's
// whitelist — the runtime counterpart of permit_hypercall, used when an
// operator narrows a shard's capabilities below what its manifest role
// grants. Requires HyperDomctlPriv and control over the target. Revocation
// wins over the manifest: the whitelist consulted at dispatch time is the
// domain's live privilege set, not the generated artifact.
func (h *Hypervisor) RevokeHypercall(caller, target xtypes.DomID, hc xtypes.Hypercall) error {
	d, err := h.gate(caller, xtypes.HyperDomctlPriv, target)
	if err != nil {
		return err
	}
	delete(d.priv.Hypercalls, hc)
	h.emit("revoke-hypercall", target, hc.String())
	return nil
}

// --- guarded grant operations ---------------------------------------------

// Grant exports one of caller's pages to grantee, subject to the IVC policy.
func (h *Hypervisor) Grant(caller, grantee xtypes.DomID, pfn xtypes.PFN, readOnly bool) (xtypes.GrantRef, error) {
	if _, err := h.check(caller, xtypes.HyperGrantTableOp); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	if err := h.ivcAllowed(caller, grantee); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	ref, err := h.Grants.Grant(caller, grantee, pfn, readOnly)
	return ref, h.deny(err)
}

// GrantFor creates a grant on behalf of owner — the Builder's extra VM-build
// step that pre-creates grant entries so XenStore and the Console Manager
// can run unprivileged (§5.6). Requires HyperDomctlPriv.
func (h *Hypervisor) GrantFor(caller, owner, grantee xtypes.DomID, pfn xtypes.PFN, readOnly bool) (xtypes.GrantRef, error) {
	if _, err := h.check(caller, xtypes.HyperDomctlPriv); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	return h.Grants.Grant(owner, grantee, pfn, readOnly)
}

// MapGrant maps a granted page, subject to the IVC policy.
func (h *Hypervisor) MapGrant(caller, owner xtypes.DomID, ref xtypes.GrantRef, write bool) (*GrantMapping, error) {
	if _, err := h.check(caller, xtypes.HyperGrantTableOp); err != nil {
		return nil, err
	}
	if err := h.ivcAllowed(caller, owner); err != nil {
		return nil, err
	}
	m, err := h.Grants.Map(caller, owner, ref, write)
	if err != nil {
		return nil, h.deny(err)
	}
	if err := h.MM.MapForeign(caller, owner, m.Entry().PFN); err != nil {
		m.Unmap()
		return nil, err
	}
	return &GrantMapping{hv: h, mapper: caller, owner: owner, m: m}, nil
}

// GrantMapping couples the grant-table mapping with its mm reference.
type GrantMapping struct {
	hv     *Hypervisor
	mapper xtypes.DomID
	owner  xtypes.DomID
	m      *grant.Mapping
	done   bool
}

// Unmap releases the mapping.
func (g *GrantMapping) Unmap() {
	if g.done {
		return
	}
	g.done = true
	g.m.Unmap()
	// The owner may already be dead; ignore stale unmap errors.
	_ = g.hv.MM.UnmapForeign(g.mapper, g.owner)
}

// --- guarded event-channel operations ---------------------------------------

// EvtchnAllocUnbound creates an unbound port, subject to the IVC policy.
func (h *Hypervisor) EvtchnAllocUnbound(caller, remote xtypes.DomID) (xtypes.Port, error) {
	if _, err := h.check(caller, xtypes.HyperEvtchnOp); err != nil {
		return xtypes.PortInvalid, err
	}
	if err := h.ivcAllowed(caller, remote); err != nil {
		return xtypes.PortInvalid, err
	}
	port, err := h.Evtchn.AllocUnbound(caller, remote)
	return port, h.deny(err)
}

// EvtchnBind binds to a remote unbound port, subject to the IVC policy.
func (h *Hypervisor) EvtchnBind(caller, remoteDom xtypes.DomID, remotePort xtypes.Port) (xtypes.Port, error) {
	if _, err := h.check(caller, xtypes.HyperEvtchnOp); err != nil {
		return xtypes.PortInvalid, err
	}
	if err := h.ivcAllowed(caller, remoteDom); err != nil {
		return xtypes.PortInvalid, err
	}
	port, err := h.Evtchn.BindInterdomain(caller, remoteDom, remotePort)
	return port, h.deny(err)
}

// EvtchnNotify signals through a bound port.
//
//xoarlint:allow(unused) ROADMAP item 2 routes each counted ring notify through it
func (h *Hypervisor) EvtchnNotify(caller xtypes.DomID, port xtypes.Port) error {
	if _, err := h.check(caller, xtypes.HyperEvtchnOp); err != nil {
		return err
	}
	return h.deny(h.Evtchn.Notify(caller, port))
}

// --- foreign mapping ---------------------------------------------------------

// MapForeign maps one of target's pages into caller. This is the privileged
// Dom0-style path; it requires HyperMapForeign plus control over the target.
// Deprivileged components use grants instead.
func (h *Hypervisor) MapForeign(caller, target xtypes.DomID, pfn xtypes.PFN) error {
	if _, err := h.gate(caller, xtypes.HyperMapForeign, target); err != nil {
		return err
	}
	return h.MM.MapForeign(caller, target, pfn)
}

// UnmapForeign releases a privileged mapping. Like MapForeign it requires
// HyperMapForeign: a domain that cannot map foreign memory has no business
// tearing down someone else's mappings either (the asymmetry was a forgotten
// audit, caught by xoarlint).
func (h *Hypervisor) UnmapForeign(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperMapForeign); err != nil {
		return err
	}
	return h.MM.UnmapForeign(caller, target)
}

// --- VIRQ and I/O ports -----------------------------------------------------

// RouteHardwareVIRQ directs a hardware-sourced VIRQ (console input) to dom.
// Requires HyperSetVIRQ. This is one of the hard-coded Dom0 assumptions Xoar
// had to generalize (§5.8).
func (h *Hypervisor) RouteHardwareVIRQ(caller xtypes.DomID, virq xtypes.VIRQ, dom xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperSetVIRQ); err != nil {
		return err
	}
	h.virqRoutes[virq] = dom
	h.emit("route-virq", dom, virq.String())
	return nil
}

// InjectHardwareVIRQ delivers a hardware interrupt along its route.
//
//xoarlint:allow(unused) ROADMAP item 2 puts the event channel's delivery half on the data path
func (h *Hypervisor) InjectHardwareVIRQ(virq xtypes.VIRQ) {
	if dom, ok := h.virqRoutes[virq]; ok {
		h.Evtchn.RaiseVIRQ(dom, virq)
	}
}

// GrantIOPorts gives target access to a named I/O-port range. Requires
// HyperIOPortAccess and control over target.
func (h *Hypervisor) GrantIOPorts(caller, target xtypes.DomID, rangeName string) error {
	d, err := h.gate(caller, xtypes.HyperIOPortAccess, target)
	if err != nil {
		return err
	}
	if d.ioPorts == nil {
		d.ioPorts = make(map[string]bool)
	}
	d.ioPorts[rangeName] = true
	h.emit("grant-ioports", target, rangeName)
	return nil
}

// HasIOPorts reports whether dom may touch the named port range.
func (h *Hypervisor) HasIOPorts(dom xtypes.DomID, rangeName string) bool {
	d, err := h.Domain(dom)
	if err != nil {
		return false
	}
	return d.ioPorts[rangeName]
}

// --- snapshot / rollback -----------------------------------------------------

// VMSnapshot captures the calling domain's image (§3.3): the shard calls this
// itself once booted and initialized, before serving external requests.
// Requires HyperVMSnapshot.
func (h *Hypervisor) VMSnapshot(caller xtypes.DomID) error {
	d, err := h.Domain(caller)
	if err != nil {
		return err
	}
	if _, err := h.check(caller, xtypes.HyperVMSnapshot); err != nil {
		return err
	}
	// Snapshots are write-once: §3.3 takes them once, after initialization
	// and before the component serves external requests. Allowing
	// replacement would let a compromised component re-snapshot its
	// corrupted image, after which every microreboot faithfully restores
	// the compromise — found by the hypercall-sequence fuzzer.
	if d.Mem.Snapshot() != nil {
		return h.deny(fmt.Errorf("hv: re-snapshot of %v(%s): %w", caller, d.Name, xtypes.ErrPerm))
	}
	d.Mem.TakeSnapshot()
	h.emit("snapshot", caller, fmt.Sprintf("%d pages", d.Mem.Snapshot().Pages()))
	return nil
}

// VMRollback rolls target back to its snapshot, returning the number of
// restored pages. Requires HyperVMRollback and control over target.
func (h *Hypervisor) VMRollback(caller, target xtypes.DomID) (int, error) {
	d, err := h.gate(caller, xtypes.HyperVMRollback, target)
	if err != nil {
		return 0, err
	}
	if err := h.injectFault("vm_rollback", caller, target); err != nil {
		return 0, fmt.Errorf("hv: rollback %v: %w", target, err)
	}
	restored, err := d.Mem.Rollback()
	if err != nil {
		return 0, err
	}
	h.emit("rollback", target, fmt.Sprintf("%d pages restored", restored))
	return restored, nil
}

// RegisterRecoveryBox marks a persistent region in the caller's memory that
// survives rollback (§3.3). It is part of the snapshot protocol and requires
// HyperVMSnapshot, the same whitelist entry as VMSnapshot itself — a domain
// not enrolled in microreboots has no snapshot for a box to survive (this
// audit was missing; caught by xoarlint).
func (h *Hypervisor) RegisterRecoveryBox(caller xtypes.DomID, start xtypes.PFN, count int) error {
	d, err := h.check(caller, xtypes.HyperVMSnapshot)
	if err != nil {
		return err
	}
	if d == nil {
		// SystemCaller bypasses the whitelist but owns no memory image.
		if d, err = h.Domain(caller); err != nil {
			return err
		}
	}
	return d.Mem.RegisterRecoveryBox(mm.RegionOf(start, count))
}

// --- scheduling --------------------------------------------------------------

// Compute charges d of CPU work to dom: the work occupies one of the domain's
// vCPUs and contends for the physical core pool in millisecond quanta. All
// component and guest models route CPU consumption through here, so CPU
// contention between co-located services (the Dom0 case) versus isolated
// shards (the Xoar case) emerges naturally.
func (h *Hypervisor) Compute(p *sim.Proc, dom xtypes.DomID, d sim.Duration) {
	dd, err := h.Domain(dom)
	if err != nil {
		p.Sleep(d) // dying domain: time passes anyway
		return
	}
	dd.vcpu.Acquire(p)
	defer dd.vcpu.Release()
	h.cpuPool.UseChunked(p, d, h.quantum)
}

// BalloonTo adjusts the caller's own memory reservation — the balloon-driver
// path guests use to return memory under pressure, one of the density
// mechanisms the paper's introduction motivates. It is an unprivileged
// operation (HyperMemoryOpOwn) and only ever touches the caller itself;
// growth is bounded by free machine memory.
func (h *Hypervisor) BalloonTo(caller xtypes.DomID, memMB int) error {
	if _, err := h.check(caller, xtypes.HyperMemoryOpOwn); err != nil {
		return err
	}
	if memMB <= 0 {
		return fmt.Errorf("hv: balloon %v to %dMB: %w", caller, memMB, xtypes.ErrInvalid)
	}
	return h.MM.SetMaxMem(caller, memMB)
}

// DebugOp models the debug-register interface — present only because two of
// the studied CVEs target it; deprivileging guests removes it (§6.2.1).
func (h *Hypervisor) DebugOp(caller xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDebugOp); err != nil {
		return err
	}
	return nil
}
