package attack

import (
	"fmt"

	"xoar/internal/audit"
	"xoar/internal/boot"
	"xoar/internal/capability"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/toolstack"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// Finding is one oracle violation: a call that succeeded without manifest
// coverage, a denial that left no audit trace, or a broken platform
// invariant. Findings are deterministic — replaying the same sequence on a
// fresh harness reproduces them exactly.
type Finding struct {
	// Index is the offending call's position, or -1 for end-of-run
	// invariant violations.
	Index int
	Call  Call
	// Kind classifies the violation.
	Kind   string
	Detail string
}

// Finding kinds.
const (
	KindEscalation       = "escalation"        // success not covered by the manifest model
	KindSilentDenial     = "silent-denial"     // ErrPerm-class refusal without a DeniedCalls tick
	KindMiscountedDenial = "miscounted-denial" // DeniedCalls moved by more than the call's own denial
	KindMissingAudit     = "missing-audit"     // topology change without its audit record
	KindAuditChain       = "audit-chain"       // hash chain no longer verifies
	KindHostCrash        = "host-crash"        // a persona took the whole host down
	KindOrphanedTree     = "orphan-subtree"    // /local/domain/<id> survived its domain
	KindPanic            = "panic"             // the hypervisor model panicked
)

func (f Finding) String() string {
	return fmt.Sprintf("[%s] call %d %v: %s", f.Kind, f.Index, f.Call, f.Detail)
}

// Result is the outcome of running one sequence.
type Result struct {
	Seq       Sequence
	Findings  []Finding
	Attempted int // hv calls issued
	Denied    int // hv calls refused with a permission-class error
}

// Harness is a freshly booted Xoar platform wired for attack replay: full
// shard fleet, two victim guests and the adversarial guest "mallory", an
// audit log on the hypervisor sink, and the Builder's restart engine
// managing the first netback and blkback so sequences can race calls
// against a live microreboot.
type Harness struct {
	Env    *sim.Env
	PL     *boot.Platform
	H      *hv.Hypervisor
	Log    *audit.Log
	Engine *snapshot.Engine

	VictimA, VictimB, Mallory xtypes.DomID
	Guests                    []*toolstack.Guest

	destroyed []xtypes.DomID
	probe     *xenstore.Conn
	bogusID   xtypes.DomID
}

// NewHarness boots the platform. Each sequence should run on its own harness
// — sequences mutate privilege state by design.
func NewHarness() (*Harness, error) {
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	log := audit.NewLog()
	h.Sink = func(e hv.Event) { log.Append(e.Time, e.Kind, e.Dom, e.Arg) }
	ha := &Harness{Env: env, H: h, Log: log}
	h.OnDestroy(func(id xtypes.DomID) { ha.destroyed = append(ha.destroyed, id) })

	pl, err := boot.Run(h, false, boot.Options{})
	if err != nil {
		env.Shutdown()
		return nil, fmt.Errorf("attack: boot: %w", err)
	}
	ha.PL = pl
	if !env.Await("attack-setup", 120*sim.Second, func(p *sim.Proc) {
		for _, name := range []string{"victimA", "victimB", "mallory"} {
			g, cerr := pl.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
				Name: name, Image: osimage.ImgGuestPV, MemMB: 256,
				Net: true, Disk: true,
			})
			if cerr != nil {
				err = cerr
				return
			}
			ha.Guests = append(ha.Guests, g)
		}
	}) {
		err = fmt.Errorf("guest setup did not complete")
	}
	if err != nil {
		env.Shutdown()
		return nil, fmt.Errorf("attack: setup: %w", err)
	}
	ha.VictimA = ha.Guests[0].Dom
	ha.VictimB = ha.Guests[1].Dom
	ha.Mallory = ha.Guests[2].Dom
	ha.Engine = ha.PL.Engine
	for _, r := range []snapshot.Restartable{ha.PL.NetBacks[0], ha.PL.BlkBacks[0]} {
		if err := ha.PL.Builder.SetRestartPolicy(r, snapshot.Policy{Kind: snapshot.PolicyPerRequest}); err != nil {
			env.Shutdown()
			return nil, err
		}
	}
	// The probe connection audits XenStore state after the run; it uses the
	// hypervisor's own identity so no component connection is disturbed.
	ha.probe = ha.PL.XenStoreLogic.Connect(hv.SystemCaller, true)
	// A DomID the platform has never allocated: "foreign DomID" probes.
	ha.bogusID = xtypes.DomID(4096)
	return ha, nil
}

// Close shuts the simulation down.
func (ha *Harness) Close() { ha.Env.Shutdown() }

// model is the oracle's view of what the persona may legitimately do. It is
// built from the capability manifest and from boot-time relationship state —
// deliberately NOT from hv.controls, whose bugs are what we are hunting. The
// model advances only on calls it itself judged legitimate, so an hv bug
// cannot launder new rights into the oracle.
type model struct {
	persona Persona
	dom     xtypes.DomID
	isShard bool

	grants     map[xtypes.Hypercall]bool
	controlAll bool
	controlled map[xtypes.DomID]bool // legitimately managed domains (never self for link ops)
	clients    map[xtypes.DomID]bool // if shard: guests linked to the persona
	serves     map[xtypes.DomID]bool // shards the persona is a linked client of
	shards     map[xtypes.DomID]bool
	snapshot   bool // persona already holds its write-once snapshot
	created    xtypes.DomID

	// resolvedGuest is the concrete guest the current link/unlink call names;
	// the harness sets it before expectAllowed/noteSuccess run.
	resolvedGuest xtypes.DomID
}

func (ha *Harness) newModel(p Persona) *model {
	m := &model{
		persona:    p,
		dom:        ha.personaDom(p),
		grants:     make(map[xtypes.Hypercall]bool),
		controlled: make(map[xtypes.DomID]bool),
		clients:    make(map[xtypes.DomID]bool),
		serves:     make(map[xtypes.DomID]bool),
		shards:     make(map[xtypes.DomID]bool),
		created:    xtypes.DomIDNone,
	}
	// Every domain may issue the unprivileged calls; shard personas add
	// their manifest role's grant set on top. A plain guest has no role.
	for hc := xtypes.Hypercall(0); hc < xtypes.NumHypercalls; hc++ {
		if !hc.Privileged() {
			m.grants[hc] = true
		}
	}
	if role := p.Role(); role != "" {
		for _, hc := range capability.Hypercalls(role) {
			m.grants[hc] = true
		}
	}
	for _, d := range ha.H.Domains() {
		if d.IsShard() {
			m.shards[d.ID] = true
		}
		if d.ID == m.dom {
			m.isShard = d.IsShard()
			m.controlAll = d.Priv().ControlAll
			m.snapshot = d.Mem.Snapshot() != nil
			for _, c := range d.Clients() {
				m.clients[c] = true
			}
			continue
		}
		if d.ParentTool() == m.dom {
			m.controlled[d.ID] = true
		}
		for _, del := range d.Delegates() {
			if del == m.dom {
				m.controlled[d.ID] = true
			}
		}
		if d.IsShard() {
			for _, c := range d.Clients() {
				if c == m.dom {
					m.serves[d.ID] = true
				}
			}
		}
	}
	return m
}

func (ha *Harness) personaDom(p Persona) xtypes.DomID {
	switch p {
	case PersonaNetBack:
		return ha.PL.NetBacks[0].Dom
	case PersonaBlkBack:
		return ha.PL.BlkBacks[0].Dom
	case PersonaBuilder:
		return ha.PL.BuilderDom
	case PersonaToolstack:
		return ha.PL.Toolstacks[0].Dom
	default:
		return ha.Mallory
	}
}

// ivcOK is the model's §5.6 sharing policy: self, shard↔shard, or a
// shard↔linked-client pair.
func (m *model) ivcOK(target xtypes.DomID) bool {
	return target == m.dom ||
		(m.isShard && (m.shards[target] || m.clients[target])) ||
		m.serves[target]
}

// can mirrors hv.check legitimacy: the manifest grants the hypercall, or the
// model legitimately holds ControlAll (boot-time, or acquired through a
// manifest-covered AssignPrivileges on itself).
func (m *model) can(hc xtypes.Hypercall) bool {
	return m.controlAll || m.grants[hc]
}

// mgmtOK is the model's management rule: the caller may issue the hypercall
// and the target is self or a legitimately controlled domain.
func (m *model) mgmtOK(hc xtypes.Hypercall, target xtypes.DomID) bool {
	return m.can(hc) && (m.controlAll || target == m.dom || m.controlled[target])
}

// expectAllowed reports whether a success would be legitimate. claims=false
// means the oracle makes no judgment for this op (it still runs, for state
// scrambling, but success is not a finding).
func (m *model) expectAllowed(c Call, target xtypes.DomID) (allowed, claims bool) {
	switch c.Op {
	case OpGrant, OpMapGrant, OpEvtchnAlloc, OpEvtchnBind:
		return m.ivcOK(target), true
	case OpMapForeign:
		return m.mgmtOK(xtypes.HyperMapForeign, target), true
	case OpUnmapForeign:
		return m.can(xtypes.HyperMapForeign), true
	case OpCreateDomain:
		return m.can(xtypes.HyperDomctlCreate), true
	case OpDestroyDomain:
		return m.mgmtOK(xtypes.HyperDomctlDestroy, target), true
	case OpPause:
		return m.mgmtOK(xtypes.HyperDomctlPause, target), true
	case OpUnpause:
		return m.mgmtOK(xtypes.HyperDomctlUnpause, target), true
	case OpSetMaxMem:
		return m.mgmtOK(xtypes.HyperDomctlMaxMem, target), true
	case OpPermitHypercall, OpControlAll, OpAssignDevice:
		// AssignPrivileges is the Builder's role: DomctlPriv plus a shard
		// target (privilege may never attach to a plain guest, §3).
		return m.can(xtypes.HyperDomctlPriv) && m.shards[target], true
	case OpRevokeHypercall:
		return m.mgmtOK(xtypes.HyperDomctlPriv, target), true
	case OpDelegateToSelf:
		return m.mgmtOK(xtypes.HyperDelegateAdmin, target), true
	case OpSetParentSelf:
		return m.can(xtypes.HyperSetParentTool), true
	case OpLinkClient, OpUnlinkClient:
		// Link rights require an *external* controller: the self-control
		// shortcut is exactly the hole the fuzzer found, so the model never
		// grants it — not even under ControlAll.
		return (m.controlAll || m.controlled[target]) &&
			m.shards[target] && target != m.dom, true
	case OpPrivilegedFor, OpGrantFor:
		return m.can(xtypes.HyperDomctlPriv), true
	case OpVMSnapshot:
		return m.can(xtypes.HyperVMSnapshot) && !m.snapshot, true
	case OpVMRollback:
		return m.mgmtOK(xtypes.HyperVMRollback, target), true
	case OpRecoveryBox:
		return m.can(xtypes.HyperVMSnapshot), true
	case OpGrantIOPorts:
		return m.mgmtOK(xtypes.HyperIOPortAccess, target), true
	case OpRouteVIRQ:
		return m.can(xtypes.HyperSetVIRQ), true
	case OpDebugOp:
		return m.can(xtypes.HyperDebugOp), true
	case OpXSWrite:
		// Guests own nothing outside their subtree; shard backends hold
		// legitimate ACLs on client device paths, so no claim for them.
		if m.persona == PersonaGuest {
			return target == m.dom, true
		}
		return true, false
	default: // OpBalloon, OpSelfExit, OpMicroreboot: own-domain or legit ops
		return true, true
	}
}

// noteSuccess advances the model after a call it judged legitimate, so
// legitimately acquired rights (a created domain, a self-granted hypercall
// by the Builder) do not produce false findings later.
func (m *model) noteSuccess(c Call, target, created xtypes.DomID, shardFlag bool) {
	switch c.Op {
	case OpCreateDomain:
		m.created = created
		m.controlled[created] = true
		if shardFlag {
			m.shards[created] = true
		}
	case OpControlAll:
		if target == m.dom {
			m.controlAll = true
		}
	case OpPermitHypercall:
		if target == m.dom {
			m.grants[argHypercall(c.Arg)] = true
		}
	case OpRevokeHypercall:
		if target == m.dom {
			delete(m.grants, argHypercall(c.Arg))
		}
	case OpSetParentSelf, OpPrivilegedFor, OpDelegateToSelf:
		m.controlled[target] = true
	case OpVMSnapshot:
		m.snapshot = true
	case OpLinkClient:
		if m.resolvedGuest == m.dom {
			m.serves[target] = true
		}
	case OpUnlinkClient:
		if m.resolvedGuest == m.dom {
			delete(m.serves, target)
		}
	case OpDestroyDomain, OpSelfExit:
		dead := target
		if c.Op == OpSelfExit {
			dead = m.dom
		}
		delete(m.controlled, dead)
		delete(m.shards, dead)
		delete(m.clients, dead)
		delete(m.serves, dead)
	}
}

func argHypercall(arg uint8) xtypes.Hypercall {
	return xtypes.Hypercall(uint32(arg) % uint32(xtypes.NumHypercalls))
}

func (ha *Harness) resolveTarget(m *model, t Target) xtypes.DomID {
	switch t {
	case TSelf:
		return m.dom
	case TVictimA:
		return ha.VictimA
	case TVictimB:
		return ha.VictimB
	case TNetBack:
		return ha.PL.NetBacks[0].Dom
	case TBlkBack:
		return ha.PL.BlkBacks[0].Dom
	case TBuilder:
		return ha.PL.BuilderDom
	case TToolstack:
		return ha.PL.Toolstacks[0].Dom
	case TCreated:
		return m.created
	default:
		return ha.bogusID
	}
}

// guestArg maps the raw argument byte of link/unlink ops to a concrete guest.
func (ha *Harness) guestArg(m *model, arg uint8) xtypes.DomID {
	switch arg % 4 {
	case 0:
		return ha.Mallory
	case 1:
		return ha.VictimA
	case 2:
		return ha.VictimB
	default:
		return m.dom
	}
}

// Run executes the sequence on the harness and returns all findings. The
// calls run inside a sim process with small gaps between them, so spawned
// microreboots genuinely overlap later calls; afterwards the clock runs on to
// let restarts settle before end-of-run invariants are checked.
func (ha *Harness) Run(seq Sequence) Result {
	m := ha.newModel(seq.Persona)
	res := Result{Seq: seq}
	ha.Env.Spawn("attack-seq", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				res.Findings = append(res.Findings, Finding{
					Index: -1, Kind: KindPanic, Detail: fmt.Sprint(r),
				})
			}
		}()
		for i, c := range seq.Calls {
			ha.exec(p, m, i, c, &res)
			p.Sleep(10 * sim.Millisecond)
		}
	})
	ha.Env.RunFor(120 * sim.Second)

	if ha.H.CrashedHost {
		res.Findings = append(res.Findings, Finding{
			Index: -1, Kind: KindHostCrash,
			Detail: fmt.Sprintf("persona %v crashed the host", seq.Persona),
		})
	}
	if i := ha.Log.Verify(); i != -1 {
		res.Findings = append(res.Findings, Finding{
			Index: -1, Kind: KindAuditChain,
			Detail: fmt.Sprintf("audit hash chain breaks at record %d", i),
		})
	}
	for _, id := range ha.destroyed {
		path := fmt.Sprintf("/local/domain/%d", id)
		if _, err := ha.probe.Directory(xenstore.TxNone, path); err == nil {
			res.Findings = append(res.Findings, Finding{
				Index: -1, Kind: KindOrphanedTree,
				Detail: path + " survived its domain's destruction",
			})
		}
	}
	return res
}

func (ha *Harness) exec(p *sim.Proc, m *model, idx int, c Call, res *Result) {
	h := ha.H
	target := ha.resolveTarget(m, c.Target)
	m.resolvedGuest = ha.guestArg(m, c.Arg)
	allowed, claims := m.expectAllowed(c, target)

	deniedBefore := h.DeniedCalls
	// Only link and unlink are checked for their audit record below.
	var linksBefore, unlinksBefore int
	switch c.Op {
	case OpLinkClient:
		linksBefore = ha.Log.KindCount("link-shard")
	case OpUnlinkClient:
		unlinksBefore = ha.Log.KindCount("unlink-shard")
	}
	hvCall := true // ops that go through hypercall dispatch obey the denial-count invariant
	var created xtypes.DomID
	shardFlag := c.Arg&1 == 1

	var err error
	switch c.Op {
	case OpGrant:
		_, err = h.Grant(m.dom, target, xtypes.PFN(c.Arg), c.Arg&1 == 1)
	case OpMapGrant:
		var gm *hv.GrantMapping
		gm, err = h.MapGrant(m.dom, target, xtypes.GrantRef(c.Arg%16), false)
		if err == nil {
			gm.Unmap()
		}
	case OpEvtchnAlloc:
		_, err = h.EvtchnAllocUnbound(m.dom, target)
	case OpEvtchnBind:
		_, err = h.EvtchnBind(m.dom, target, xtypes.Port(c.Arg%8))
	case OpMapForeign:
		err = h.MapForeign(m.dom, target, xtypes.PFN(c.Arg))
		if err == nil {
			h.UnmapForeign(m.dom, target)
		}
	case OpUnmapForeign:
		err = h.UnmapForeign(m.dom, target)
	case OpCreateDomain:
		var d *hv.Domain
		d, err = h.CreateDomain(m.dom, hv.DomainConfig{
			Name: fmt.Sprintf("implant-%d", idx), MemMB: 16, Shard: shardFlag,
		})
		if err == nil {
			created = d.ID
		}
	case OpDestroyDomain:
		err = h.DestroyDomain(m.dom, target, "attack")
	case OpPause:
		err = h.Pause(m.dom, target)
	case OpUnpause:
		err = h.Unpause(m.dom, target)
	case OpSetMaxMem:
		err = h.SetMaxMem(m.dom, target, 16+int(c.Arg)%64)
	case OpPermitHypercall:
		err = h.AssignPrivileges(m.dom, target, hv.Assignment{
			Hypercalls: []xtypes.Hypercall{argHypercall(c.Arg)},
		})
	case OpRevokeHypercall:
		err = h.RevokeHypercall(m.dom, target, argHypercall(c.Arg))
	case OpControlAll:
		err = h.AssignPrivileges(m.dom, target, hv.Assignment{ControlAll: true})
	case OpAssignDevice:
		if nics := h.Machine.NICs(); len(nics) > 0 {
			err = h.AssignPrivileges(m.dom, target, hv.Assignment{
				PCIDevices: []xtypes.PCIAddr{nics[0].Addr()},
			})
		} else {
			return
		}
	case OpDelegateToSelf:
		err = h.Delegate(m.dom, target, m.dom)
	case OpSetParentSelf:
		err = h.SetParentTool(m.dom, target, m.dom)
	case OpLinkClient:
		err = h.LinkShardClient(m.dom, target, m.resolvedGuest)
	case OpUnlinkClient:
		err = h.UnlinkShardClient(m.dom, target, m.resolvedGuest)
	case OpPrivilegedFor:
		err = h.SetPrivilegedFor(m.dom, m.dom, target)
	case OpGrantFor:
		_, err = h.GrantFor(m.dom, target, m.dom, xtypes.PFN(c.Arg), false)
	case OpVMSnapshot:
		err = h.VMSnapshot(m.dom)
	case OpVMRollback:
		_, err = h.VMRollback(m.dom, target)
	case OpRecoveryBox:
		err = h.RegisterRecoveryBox(m.dom, xtypes.PFN(c.Arg), 4)
	case OpGrantIOPorts:
		err = h.GrantIOPorts(m.dom, target, "console")
	case OpRouteVIRQ:
		err = h.RouteHardwareVIRQ(m.dom, xtypes.VIRQ(uint32(c.Arg)%uint32(xtypes.NumVIRQs)), target)
	case OpBalloon:
		err = h.BalloonTo(m.dom, int(c.Arg))
	case OpDebugOp:
		err = h.DebugOp(m.dom)
	case OpXSWrite:
		hvCall = false
		switch m.persona {
		case PersonaToolstack, PersonaBuilder:
			// Their boot-time connections are privileged control-plane
			// state; reusing them would clobber legitimate wiring, so the
			// op is a no-op for these personas.
			return
		}
		conn := ha.PL.XenStoreLogic.Connect(m.dom, false)
		err = conn.Write(xenstore.TxNone, fmt.Sprintf("/local/domain/%d/attack", target), "owned")
	case OpSelfExit:
		err = h.SelfExit(m.dom)
	case OpMicroreboot:
		hvCall = false
		nb := ha.PL.NetBacks[0].Dom
		eng := ha.Engine
		ha.Env.Spawn("attack-mr", func(p2 *sim.Proc) { eng.RequestRestart(p2, nb) })
		p.Sleep(sim.Millisecond) // let the restart begin; later calls race it
	}

	res.Attempted++
	// An hv call moves DeniedCalls by exactly one when it is refused with a
	// permission-class error and by zero otherwise, so a refusal counted
	// twice, or one a teardown hook issues during the call, is a finding.
	want := 0
	if err != nil && xtypes.IsDenial(err) {
		res.Denied++
		want = 1
	}
	if moved := h.DeniedCalls - deniedBefore; hvCall && moved < want {
		res.Findings = append(res.Findings, Finding{
			Index: idx, Call: c, Kind: KindSilentDenial,
			Detail: fmt.Sprintf("refused with %v but DeniedCalls did not move", err),
		})
	} else if hvCall && moved > want {
		res.Findings = append(res.Findings, Finding{
			Index: idx, Call: c, Kind: KindMiscountedDenial,
			Detail: fmt.Sprintf("DeniedCalls moved by %d, want %d (err: %v)", moved, want, err),
		})
	}
	if err == nil {
		if claims && !allowed {
			res.Findings = append(res.Findings, Finding{
				Index: idx, Call: c, Kind: KindEscalation,
				Detail: fmt.Sprintf("%v as %v on %v succeeded outside manifest coverage",
					c.Op, m.persona, target),
			})
		}
		// Topology mutations must land in the hash-chained log.
		if c.Op == OpLinkClient && ha.Log.KindCount("link-shard") == linksBefore {
			res.Findings = append(res.Findings, Finding{
				Index: idx, Call: c, Kind: KindMissingAudit,
				Detail: "link succeeded without a link-shard audit record",
			})
		}
		if c.Op == OpUnlinkClient && ha.Log.KindCount("unlink-shard") == unlinksBefore {
			res.Findings = append(res.Findings, Finding{
				Index: idx, Call: c, Kind: KindMissingAudit,
				Detail: "unlink succeeded without an unlink-shard audit record",
			})
		}
		m.noteSuccess(c, target, created, shardFlag)
	}
	if h.CrashedHost {
		res.Findings = append(res.Findings, Finding{
			Index: idx, Call: c, Kind: KindHostCrash,
			Detail: "host crashed during the sequence",
		})
	}
	if i := ha.Log.Verify(); i != -1 {
		res.Findings = append(res.Findings, Finding{
			Index: idx, Call: c, Kind: KindAuditChain,
			Detail: fmt.Sprintf("audit hash chain breaks at record %d", i),
		})
	}
}

// RunSequence boots a fresh harness, runs seq, and shuts down — the
// one-call entry point the fuzzer and CLI use.
func RunSequence(seq Sequence) (Result, error) {
	ha, err := NewHarness()
	if err != nil {
		return Result{}, err
	}
	defer ha.Close()
	return ha.Run(seq), nil
}
