// Package hv models the Xen hypervisor: domain lifecycle, vCPU scheduling
// onto physical cores, hypercall dispatch with per-domain whitelists, VIRQ
// routing, I/O-port and device assignment, and the snapshot/rollback
// primitives that the microreboot engine builds on.
//
// Every privileged operation takes the *caller's* domain ID and is checked
// against that domain's privilege set and its relationship to the target —
// this is the enforcement surface the paper's security argument rests on:
//
//   - a hypercall must be whitelisted for the caller (permit_hypercall);
//   - a management call must target a domain the caller controls: itself,
//     a domain whose parent toolstack it is, or a shard delegated to it
//     (allow_delegation);
//   - in the Xoar profile, grant and event-channel setup between two domains
//     is blocked unless one endpoint is a shard and the other is a client
//     the shard has been linked to (§5.6).
package hv

import (
	"fmt"
	"sort"

	"xoar/internal/evtchn"
	"xoar/internal/grant"
	"xoar/internal/hw"
	"xoar/internal/mm"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// SystemCaller is the pseudo-caller for operations performed by the
// hypervisor itself at boot (creating the first domain). It bypasses all
// checks, as ring-0 code does.
const SystemCaller = xtypes.DomID(0xFFFFFFF0)

// DomainState tracks a domain through its lifecycle.
type DomainState uint8

const (
	StateCreated DomainState = iota
	StateRunning
	StatePaused
	StateDead
)

func (s DomainState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	default:
		return "dead"
	}
}

// DomainConfig describes a domain to create.
type DomainConfig struct {
	Name  string
	MemMB int
	VCPUs int
	// Shard marks the domain as a Xoar shard: the only kind of VM that may
	// receive extra privileges or serve IVC to guests.
	Shard bool
	// Critical marks a domain whose unexpected death is fatal to the host
	// (Dom0 in stock Xen). Xoar clears this even for Bootstrapper so it can
	// exit after boot (§5.8).
	Critical bool
	// OSImage names the kernel image the domain runs (for TCB accounting).
	OSImage string
}

// Privileges is a domain's assigned capability set, populated through the
// Figure 3.1 API (assign_pci_device / permit_hypercall / allow_delegation).
type Privileges struct {
	// Hypercalls whitelisted beyond the default unprivileged set.
	Hypercalls map[xtypes.Hypercall]bool
	// ControlAll short-circuits all target checks (monolithic Dom0 only).
	ControlAll bool
}

// Domain is a live virtual machine.
type Domain struct {
	ID    xtypes.DomID
	Name  string
	Cfg   DomainConfig
	Mem   *mm.DomainMem
	State DomainState

	priv Privileges
	// parentTool is the toolstack that built this domain and holds
	// VM-management rights over it (§5.6).
	parentTool xtypes.DomID
	// delegates are domains allowed to administer this shard
	// (allow_delegation).
	delegates map[xtypes.DomID]bool
	// privilegedFor lists domains this VM holds limited memory privileges
	// over (a QemuVM over its HVM guest).
	privilegedFor map[xtypes.DomID]bool
	// clients are guests allowed to consume this shard's service.
	clients map[xtypes.DomID]bool

	vcpu *sim.Resource

	// ioPorts are named port ranges the domain may touch ("console", "pci").
	ioPorts map[string]bool

	// ExitCode records why the domain died.
	ExitReason string
}

// Priv returns a copy of the domain's privilege set (read-only view).
func (d *Domain) Priv() Privileges {
	cp := Privileges{ControlAll: d.priv.ControlAll, Hypercalls: make(map[xtypes.Hypercall]bool, len(d.priv.Hypercalls))}
	for h := range d.priv.Hypercalls {
		cp.Hypercalls[h] = true
	}
	return cp
}

// IsShard reports whether the domain is a Xoar shard.
func (d *Domain) IsShard() bool { return d.Cfg.Shard }

// ParentTool returns the toolstack that owns this domain.
func (d *Domain) ParentTool() xtypes.DomID { return d.parentTool }

// Clients returns the guests linked to this shard, in unspecified order.
func (d *Domain) Clients() []xtypes.DomID {
	out := make([]xtypes.DomID, 0, len(d.clients))
	for c := range d.clients {
		out = append(out, c)
	}
	return out
}

// Delegates returns the domains holding delegated admin rights over d.
func (d *Domain) Delegates() []xtypes.DomID {
	out := make([]xtypes.DomID, 0, len(d.delegates))
	for c := range d.delegates {
		out = append(out, c)
	}
	return out
}

// Event is a lifecycle notification emitted to the audit sink.
type Event struct {
	Time sim.Time
	Kind string
	Dom  xtypes.DomID
	Arg  string
}

// Hypervisor is the platform's trust root.
type Hypervisor struct {
	Env     *sim.Env
	Machine *hw.Machine
	MM      *mm.Manager
	Evtchn  *evtchn.Table
	Grants  *grant.Table

	// EnforceShardIVC enables the Xoar policy that IVC endpoints must be
	// shard↔client pairs. Stock Xen leaves grant/evtchn setup unrestricted.
	EnforceShardIVC bool

	// CrashedHost is set when a critical domain died; the "machine" is down.
	CrashedHost bool

	// Sink receives lifecycle events; the audit log subscribes here.
	Sink func(Event)

	// Fault, when set, is consulted before the effects of fault-injectable
	// hypercalls (domain creation, snapshot rollback) are applied; a
	// non-nil return fails the call with that error. This is the test hook
	// for exercising the restart engine's half-recovered cleanup paths.
	Fault FaultFunc

	// OnDestroy hooks run after a domain is destroyed (XenStore cleanup,
	// driver teardown). Keyed by subscriber name for determinism in tests.
	onDestroy []func(xtypes.DomID)

	domains map[xtypes.DomID]*Domain
	nextID  xtypes.DomID

	cpuPool *sim.Resource
	quantum sim.Duration

	// virqRoutes maps hardware-sourced VIRQs to their recipient domain
	// (e.g. the console VIRQ to Dom0 or the Console Manager, §5.8).
	virqRoutes map[xtypes.VIRQ]xtypes.DomID

	// Counters for experiments. Only deny writes DeniedCalls.
	HypercallCount map[xtypes.Hypercall]int
	DeniedCalls    int
}

// New returns a hypervisor for machine.
func New(env *sim.Env, machine *hw.Machine) *Hypervisor {
	h := &Hypervisor{
		Env:            env,
		Machine:        machine,
		MM:             mm.NewManager(machine.RAMMB),
		Evtchn:         evtchn.NewTable(env),
		Grants:         grant.NewTable(),
		domains:        make(map[xtypes.DomID]*Domain),
		nextID:         0,
		cpuPool:        sim.NewResource(env, len(machine.CPUs)),
		quantum:        sim.Millisecond,
		virqRoutes:     make(map[xtypes.VIRQ]xtypes.DomID),
		HypercallCount: make(map[xtypes.Hypercall]int),
	}
	return h
}

func (h *Hypervisor) emit(kind string, dom xtypes.DomID, arg string) {
	if h.Sink != nil {
		h.Sink(Event{Time: h.Env.Now(), Kind: kind, Dom: dom, Arg: arg})
	}
}

// emitDom is emit for an event whose argument names a domain. The name is
// formatted only when a sink is installed to read it: no experiments rig and
// no cluster host installs one, and formatting allocates.
func (h *Hypervisor) emitDom(kind string, dom, arg xtypes.DomID) {
	if h.Sink != nil {
		h.emit(kind, dom, arg.String())
	}
}

// OnDestroy registers a teardown hook invoked after every domain destruction.
func (h *Hypervisor) OnDestroy(f func(xtypes.DomID)) { h.onDestroy = append(h.onDestroy, f) }

// FaultFunc decides whether a fault-injectable operation should fail.
// op names the operation ("domctl_create", "vm_rollback"); caller and
// target identify the hypercall parties (target is DomIDNone for creates,
// whose domain does not exist yet).
type FaultFunc func(op string, caller, target xtypes.DomID) error

// injectFault consults the installed fault injector, if any.
func (h *Hypervisor) injectFault(op string, caller, target xtypes.DomID) error {
	if h.Fault == nil {
		return nil
	}
	return h.Fault(op, caller, target)
}

// Domain looks up a live domain.
func (h *Hypervisor) Domain(id xtypes.DomID) (*Domain, error) {
	d, ok := h.domains[id]
	if !ok || d.State == StateDead {
		return nil, fmt.Errorf("hv: %v: %w", id, xtypes.ErrNoDomain)
	}
	return d, nil
}

// Domains lists live domains in creation order, which is ID order: IDs are
// allocated increasing and never reused.
func (h *Hypervisor) Domains() []*Domain {
	var out []*Domain
	for _, d := range h.domains {
		if d.State != StateDead {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// check verifies that caller may invoke hc at all.
func (h *Hypervisor) check(caller xtypes.DomID, hc xtypes.Hypercall) (*Domain, error) {
	h.HypercallCount[hc]++
	if caller == SystemCaller {
		return nil, nil
	}
	d, err := h.Domain(caller)
	if err != nil {
		return nil, err
	}
	if !hc.Privileged() {
		return d, nil
	}
	if d.priv.ControlAll || d.priv.Hypercalls[hc] {
		return d, nil
	}
	return nil, h.deny(fmt.Errorf("hv: %v by %v(%s): %w", hc, caller, d.Name, xtypes.ErrPerm))
}

// deny is the one place refusals are counted: it bumps DeniedCalls when err
// is a permission-class refusal (xtypes.IsDenial) and returns err unchanged.
// The grant and event-channel tables' object-level refusals (someone else's
// grant ref, a port reserved for another domain) pass through it too: left
// uncounted, they let an attacker sweep both tables without a trace (found
// by the hypercall-sequence fuzzer). A denial adds no audit record.
func (h *Hypervisor) deny(err error) error {
	// The nil test keeps the success path of every grant and notify to one
	// comparison; IsDenial would make three errors.Is calls.
	if err != nil && xtypes.IsDenial(err) {
		h.DeniedCalls++
	}
	return err
}

// gate is the prologue of every management hypercall: caller must be
// whitelisted for hc, target must be live, and caller must control it.
// It returns the target domain.
func (h *Hypervisor) gate(caller xtypes.DomID, hc xtypes.Hypercall, target xtypes.DomID) (*Domain, error) {
	if _, err := h.check(caller, hc); err != nil {
		return nil, err
	}
	d, err := h.Domain(target)
	if err != nil {
		return nil, err
	}
	if !h.controls(caller, d) {
		return nil, h.deny(fmt.Errorf("hv: %v on %v by %v: %w", hc, target, caller, xtypes.ErrPerm))
	}
	return d, nil
}

// controls reports whether caller holds management rights over target:
// itself, ControlAll, parent toolstack, explicit delegation, or a
// privileged-for relationship.
func (h *Hypervisor) controls(caller xtypes.DomID, target *Domain) bool {
	if caller == SystemCaller || caller == target.ID {
		return true
	}
	cd, err := h.Domain(caller)
	if err != nil {
		return false
	}
	if cd.priv.ControlAll {
		return true
	}
	if target.parentTool == caller {
		return true
	}
	if target.delegates[caller] {
		return true
	}
	if cd.privilegedFor[target.ID] {
		return true
	}
	return false
}

// --- lifecycle -------------------------------------------------------------

// CreateDomain creates a paused domain shell. Requires HyperDomctlCreate.
func (h *Hypervisor) CreateDomain(caller xtypes.DomID, cfg DomainConfig) (*Domain, error) {
	if _, err := h.check(caller, xtypes.HyperDomctlCreate); err != nil {
		return nil, err
	}
	if err := h.injectFault("domctl_create", caller, xtypes.DomIDNone); err != nil {
		return nil, fmt.Errorf("hv: create %q: %w", cfg.Name, err)
	}
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 1
	}
	id := h.nextID
	h.nextID++
	dmem, err := h.MM.CreateDomain(id, cfg.MemMB)
	if err != nil {
		h.nextID-- // roll the ID back so failed creates don't burn IDs
		return nil, err
	}
	// The privilege and relationship maps stay nil until their first
	// write: a plain guest never writes any of them.
	d := &Domain{
		ID:    id,
		Name:  cfg.Name,
		Cfg:   cfg,
		Mem:   dmem,
		State: StateCreated,
		vcpu:  sim.NewResource(h.Env, cfg.VCPUs),
	}
	if caller != SystemCaller {
		if cd, err := h.Domain(caller); err == nil {
			d.parentTool = cd.ID
		}
	} else {
		d.parentTool = xtypes.DomIDNone
	}
	h.domains[id] = d
	h.Evtchn.AddDomain(id)
	h.Grants.AddDomain(id)
	h.emit("create", id, cfg.Name)
	return d, nil
}

// Unpause starts a created or paused domain.
func (h *Hypervisor) Unpause(caller, target xtypes.DomID) error {
	d, err := h.gate(caller, xtypes.HyperDomctlUnpause, target)
	if err != nil {
		return err
	}
	d.State = StateRunning
	h.emit("unpause", target, "")
	return nil
}

// Pause stops a running domain.
func (h *Hypervisor) Pause(caller, target xtypes.DomID) error {
	d, err := h.gate(caller, xtypes.HyperDomctlPause, target)
	if err != nil {
		return err
	}
	d.State = StatePaused
	h.emit("pause", target, "")
	return nil
}

// DestroyDomain tears a domain down: event channels close (peers observe
// breaks), grants die, foreign mappings are force-released, memory returns
// to the free pool, and destroy hooks run. If the domain was Critical the
// host crashes — the stock-Xen behaviour Xoar removes for its boot shards.
func (h *Hypervisor) DestroyDomain(caller, target xtypes.DomID, reason string) error {
	d, err := h.gate(caller, xtypes.HyperDomctlDestroy, target)
	if err != nil {
		return err
	}
	return h.destroy(d, reason)
}

func (h *Hypervisor) destroy(d *Domain, reason string) error {
	d.State = StateDead
	d.ExitReason = reason
	h.Evtchn.RemoveDomain(d.ID)
	h.Grants.RemoveDomain(d.ID)
	h.MM.ForceReleaseMappings(d.ID)
	if err := h.MM.DestroyDomain(d.ID); err != nil {
		return err
	}
	delete(h.domains, d.ID)
	// Revoke VIRQ routes pointing at the dead domain.
	for v, dom := range h.virqRoutes {
		if dom == d.ID {
			delete(h.virqRoutes, v)
		}
	}
	// Release passthrough devices so a replacement driver domain can claim
	// them (in-place driver upgrade, §6.2).
	h.Machine.Bus.UnassignAll(d.ID)
	// A dead guest's shard-client links would dangle: close each shard's
	// exposure window over it exactly as an explicit unlink would, so the
	// audit log's interval index does not report the dead domain as a
	// dependent forever. Only live domains are scanned, so teardown cost
	// does not grow with the IDs ever allocated; the few linked shards are
	// unlinked in ID order for determinism.
	var shards []*Domain
	for _, s := range h.domains {
		if s.Cfg.Shard && s.clients[d.ID] {
			shards = append(shards, s)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })
	for _, s := range shards {
		delete(s.clients, d.ID)
		h.emitDom("unlink-shard", s.ID, d.ID)
	}
	h.emit("destroy", d.ID, reason)
	for _, f := range h.onDestroy {
		f(d.ID)
	}
	if d.Cfg.Critical && reason != "shutdown" {
		// Stock Xen: a Dom0 failure is critical and reboots the system (§5.8).
		h.CrashedHost = true
		h.emit("host-crash", d.ID, "critical domain died: "+reason)
	}
	return nil
}

// SelfExit is a domain exiting voluntarily (Bootstrapper and PCIBack
// self-destruct after boot, §5.2/5.3). Never crashes the host — the one
// hypervisor modification §5.8 describes for letting boot components quit.
func (h *Hypervisor) SelfExit(caller xtypes.DomID) error {
	d, err := h.Domain(caller)
	if err != nil {
		return err
	}
	d.Cfg.Critical = false
	return h.destroy(d, "shutdown")
}

// SetMaxMem resizes a domain's reservation.
func (h *Hypervisor) SetMaxMem(caller, target xtypes.DomID, memMB int) error {
	if _, err := h.gate(caller, xtypes.HyperDomctlMaxMem, target); err != nil {
		return err
	}
	return h.MM.SetMaxMem(target, memMB)
}
