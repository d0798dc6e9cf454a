package seceval

import (
	"fmt"
	"sort"

	"xoar/internal/boot"
	"xoar/internal/osimage"
	"xoar/internal/xtypes"
)

// Outcome classifies an attack's blast radius.
type Outcome uint8

const (
	// OutContained: the attacker gains nothing beyond its own VM (and the
	// per-guest component serving it).
	OutContained Outcome = iota
	// OutSharedClients: the attacker reaches exactly the VMs sharing the
	// compromised shard.
	OutSharedClients
	// OutWholeHost: the entire platform is compromised.
	OutWholeHost
	// OutMitigated: the vulnerable interface is removed by configuration
	// (deprivileged guests for the debug-register bugs).
	OutMitigated
	// OutNotApplicable: the bug is already fixed in this release.
	OutNotApplicable
)

func (o Outcome) String() string {
	switch o {
	case OutContained:
		return "contained"
	case OutSharedClients:
		return "limited-to-sharers"
	case OutWholeHost:
		return "whole-host"
	case OutMitigated:
		return "mitigated"
	default:
		return "not-applicable"
	}
}

// Finding is the analyzer's verdict for one vulnerability.
type Finding struct {
	Vuln    Vuln
	Outcome Outcome
	// Reached lists guest VMs the attacker gains power over (excluding its
	// own), for the shared-clients case.
	Reached []xtypes.DomID
}

// Options tune the analysis.
type Options struct {
	// DeprivilegedGuests removes the debug-register interface from guests,
	// mitigating those CVEs on either platform (§6.2.1).
	DeprivilegedGuests bool
	// Attacker is the guest the attack originates from; DomIDNone picks the
	// first non-shard guest.
	Attacker xtypes.DomID
	// QemuOf maps an HVM attacker to its device-model domain. DomIDNone
	// means PV-only: device-emulation attacks then have no target in Xoar
	// and are treated as contained to a hypothetical per-guest QemuVM.
	QemuOf xtypes.DomID
}

// Analyzer computes containment over a booted platform.
type Analyzer struct {
	PL   *boot.Platform
	Opts Options
}

// NewAnalyzer wraps a platform.
func NewAnalyzer(pl *boot.Platform, opts Options) *Analyzer {
	return &Analyzer{PL: pl, Opts: opts}
}

// componentFor locates the domain hosting the vulnerable component.
func (a *Analyzer) componentFor(vec Vector) xtypes.DomID {
	pl := a.PL
	if pl.Monolithic {
		return pl.Dom0
	}
	switch vec {
	case VecDeviceEmulation:
		if a.Opts.QemuOf != xtypes.DomIDNone {
			return a.Opts.QemuOf
		}
		return xtypes.DomIDNone // per-guest QemuVM, instantiated on demand
	case VecVirtualDevice:
		if len(pl.NetBacks) > 0 {
			return pl.NetBacks[0].Dom
		}
		return xtypes.DomIDNone
	case VecToolstack, VecManagement:
		if len(pl.Toolstacks) > 0 {
			return pl.Toolstacks[0].Dom
		}
		return xtypes.DomIDNone
	case VecXenStore:
		return pl.XSLogicDom
	default:
		return xtypes.DomIDNone
	}
}

// reachOf computes the set of guest VMs a compromised domain gains power
// over, by walking the hypervisor's live privilege state: full control,
// shard-client links, parent-toolstack children, and privileged-for flags.
func (a *Analyzer) reachOf(comp xtypes.DomID) (whole bool, reached []xtypes.DomID) {
	h := a.PL.HV
	d, err := h.Domain(comp)
	if err != nil {
		return false, nil
	}
	if d.Priv().ControlAll {
		return true, nil
	}
	seen := make(map[xtypes.DomID]bool)
	for _, c := range d.Clients() {
		seen[c] = true
	}
	for _, other := range h.Domains() {
		if other.ID != comp && other.ParentTool() == comp {
			seen[other.ID] = true
		}
	}
	// Memory the component currently maps (privileged-for targets show up
	// as live or permitted mappings).
	for _, target := range h.Domains() {
		if target.ID == comp {
			continue
		}
		if h.MM.ForeignMapCount(comp, target.ID) > 0 {
			seen[target.ID] = true
		}
	}
	for id := range seen {
		reached = append(reached, id)
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
	return false, reached
}

// Analyze computes the verdict for one vulnerability.
func (a *Analyzer) Analyze(v Vuln) Finding {
	f := Finding{Vuln: v}
	if v.FixedInVersion {
		f.Outcome = OutNotApplicable
		return f
	}
	if v.Vector == VecDebugRegs && a.Opts.DeprivilegedGuests {
		f.Outcome = OutMitigated
		return f
	}
	if v.Vector == VecHypervisor {
		f.Outcome = OutWholeHost
		return f
	}
	comp := a.componentFor(v.Vector)
	if a.PL.Monolithic {
		// Everything lives in Dom0: ControlAll ⇒ whole host.
		f.Outcome = OutWholeHost
		return f
	}
	if comp == xtypes.DomIDNone {
		f.Outcome = OutContained
		return f
	}
	whole, reached := a.reachOf(comp)
	if whole {
		f.Outcome = OutWholeHost
		return f
	}
	// Remove the attacker itself from the reach: compromising yourself is
	// not a gain.
	attacker := a.Opts.Attacker
	var rest []xtypes.DomID
	for _, r := range reached {
		if r != attacker {
			rest = append(rest, r)
		}
	}
	f.Reached = rest
	if v.Vector == VecDeviceEmulation {
		f.Outcome = OutContained
		return f
	}
	if len(rest) == 0 {
		f.Outcome = OutContained
		return f
	}
	f.Outcome = OutSharedClients
	return f
}

// Report summarizes the guest-threat-model analysis.
type Report struct {
	Findings []Finding
	// ByOutcome tallies verdicts.
	ByOutcome map[Outcome]int
}

// Run analyzes all guest-sourced vulnerabilities.
func (a *Analyzer) Run() Report {
	rep := Report{ByOutcome: make(map[Outcome]int)}
	for _, v := range GuestSourced() {
		f := a.Analyze(v)
		rep.Findings = append(rep.Findings, f)
		rep.ByOutcome[f.Outcome]++
	}
	return rep
}

// --- TCB accounting (§6.2) ---------------------------------------------------

// TCBReport sums the code trusted with guest-memory access.
type TCBReport struct {
	// Components lists privileged domains and their image sizes.
	Components []TCBComponent
	SourceLoC  int
	CompLoC    int
	// XenSourceLoC / XenCompLoC are the hypervisor's own contribution.
	XenSourceLoC int
	XenCompLoC   int
}

// TCBComponent is one privileged domain's contribution.
type TCBComponent struct {
	Name   string
	Image  string
	SrcLoC int
}

// TCB computes the platform's trusted computing base from live privilege
// state: every domain holding arbitrary guest-memory access (ControlAll, or
// the build-time privilege pair MapForeign+DomctlPriv) plus the hypervisor.
// In Xoar's steady state this is exactly the nanOS Builder (§6.2); in the
// monolithic profile it is all of Dom0's Linux.
func TCB(pl *boot.Platform) TCBReport {
	rep := TCBReport{XenSourceLoC: osimage.XenSourceLoC, XenCompLoC: osimage.XenCompiledLoC}
	for _, d := range pl.HV.Domains() {
		priv := d.Priv()
		trusted := priv.ControlAll ||
			(priv.Hypercalls[xtypes.HyperMapForeign] && priv.Hypercalls[xtypes.HyperDomctlPriv])
		if !trusted {
			continue
		}
		img, err := pl.Catalog.Lookup(d.Cfg.OSImage)
		if err != nil {
			continue
		}
		rep.Components = append(rep.Components, TCBComponent{
			Name: d.Name, Image: img.Name, SrcLoC: img.SourceLoC,
		})
		rep.SourceLoC += img.SourceLoC
		rep.CompLoC += img.CompiledLoC
	}
	return rep
}

// String renders the report like the paper's §6.2 sentence.
func (r TCBReport) String() string {
	return fmt.Sprintf("TCB: %d source / %d compiled LoC in control components, atop Xen's %d/%d",
		r.SourceLoC, r.CompLoC, r.XenSourceLoC, r.XenCompLoC)
}
