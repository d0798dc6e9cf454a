// Package core is the top of the Xoar stack: it assembles the hypervisor,
// hardware models, substrates, and control-plane components into a Platform
// with one of two profiles — the stock monolithic Dom0, or the paper's
// disaggregated shard architecture — and exposes the operations a platform
// operator performs: create and destroy guests, configure microreboot
// policies, constrain sharing, query the audit log, and run the security
// analysis.
//
// Everything here runs on a deterministic virtual clock; Advance and
// RunWorkload move simulated time.
package core

import (
	"fmt"

	"xoar/internal/audit"
	"xoar/internal/blkdrv"
	"xoar/internal/boot"
	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/mm"
	"xoar/internal/netdrv"
	"xoar/internal/osimage"
	"xoar/internal/seceval"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/toolstack"
	"xoar/internal/workload"
	"xoar/internal/xtypes"
)

// Profile selects the platform architecture.
type Profile uint8

const (
	// MonolithicDom0 is the stock Xen layout: one privileged control VM.
	MonolithicDom0 Profile = iota
	// XoarShards is the paper's architecture: the control VM broken into
	// isolated, least-privilege, restartable shards.
	XoarShards
)

func (p Profile) String() string {
	if p == MonolithicDom0 {
		return "monolithic-dom0"
	}
	return "xoar-shards"
}

// Config tunes platform assembly.
type Config struct {
	// Seed drives the deterministic simulation; equal seeds reproduce runs
	// exactly.
	Seed int64
	// Toolstacks is the number of management toolstacks (Xoar only).
	Toolstacks int
	// DestroyPCIBack removes PCIBack after boot (§5.3), shrinking the
	// steady-state set of privileged components.
	DestroyPCIBack bool
	// NoConsole omits the Console Manager (the paper's minimal hosting
	// configuration, §6.1.1).
	NoConsole bool
	// Machine overrides the modelled host; zero value selects the paper's
	// testbed. Hosts with several controllers get one driver shard each.
	Machine hw.MachineConfig
}

// RestartPolicy configures microreboots for a restartable component.
type RestartPolicy struct {
	// Interval between restarts; zero disables the timer.
	Interval sim.Duration
	// Fast selects recovery-box restoration over XenStore renegotiation.
	Fast bool
}

// Platform is a booted virtualization platform.
type Platform struct {
	Profile Profile
	Env     *sim.Env
	HV      *hv.Hypervisor
	Boot    *boot.Platform
	Log     *audit.Log

	guests map[xtypes.DomID]*Guest
}

// Guest is a running guest VM with its workload endpoints attached.
type Guest struct {
	Name string
	Dom  xtypes.DomID
	VM   *guest.VM
	rec  *toolstack.Guest
	pl   *Platform
}

// New boots a platform with the given profile.
func New(profile Profile, cfg Config) (*Platform, error) {
	return newPlatform(sim.NewEnv(cfg.Seed), profile, cfg)
}

// NewCluster boots n platforms of the same profile sharing one virtual
// clock, as hosts on one management network — the setup live migration
// needs. Hosts boot sequentially on the shared clock.
func NewCluster(profile Profile, cfg Config, n int) ([]*Platform, error) {
	env := sim.NewEnv(cfg.Seed)
	out := make([]*Platform, 0, n)
	for i := 0; i < n; i++ {
		pl, err := newPlatform(env, profile, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pl)
	}
	return out, nil
}

func newPlatform(env *sim.Env, profile Profile, cfg Config) (*Platform, error) {
	h := hv.New(env, hw.NewMachineWith(env, cfg.Machine))
	log := audit.NewLog()
	h.Sink = func(e hv.Event) { log.Append(e.Time, e.Kind, e.Dom, e.Arg) }
	bp, err := boot.Run(h, profile == MonolithicDom0, boot.Options{
		Toolstacks: cfg.Toolstacks, DestroyPCIBack: cfg.DestroyPCIBack, NoConsole: cfg.NoConsole,
	})
	if err != nil {
		return nil, err
	}
	return &Platform{Profile: profile, Env: env, HV: h, Boot: bp, Log: log, guests: make(map[xtypes.DomID]*Guest)}, nil
}

// GuestSpec describes a guest to create.
type GuestSpec struct {
	Name string
	// Image names a known-good catalog image; empty selects the PV guest.
	Image string
	// CustomKernel boots a user kernel through the bootloader (§5.2).
	CustomKernel bool
	MemMB        int
	VCPUs        int
	Net          bool
	Disk         bool
	DiskMB       int
	// NetQueues/DiskQueues give the guest's devices N rings each (0 or 1 is
	// the single-ring layout); vifs hash flows across rings, vbds stripe.
	NetQueues  int
	DiskQueues int
	// ConstraintTag restricts which guests may share this guest's shards
	// (§3.2.1).
	ConstraintTag string
	// Toolstack indexes the managing toolstack (multi-toolstack private
	// clouds, §3.4.2).
	Toolstack int
	// HVM runs an unmodified guest behind a dedicated QemuVM device model.
	HVM bool
}

// CreateGuest builds and wires a guest through the platform's toolstack.
func (pl *Platform) CreateGuest(spec GuestSpec) (*Guest, error) {
	if spec.Image == "" {
		spec.Image = osimage.ImgGuestPV
		if spec.HVM {
			spec.Image = osimage.ImgGuestHVM
		}
	}
	if spec.Toolstack < 0 || spec.Toolstack >= len(pl.Boot.Toolstacks) {
		return nil, fmt.Errorf("core: toolstack %d: %w", spec.Toolstack, xtypes.ErrNotFound)
	}
	ts := pl.Boot.Toolstacks[spec.Toolstack]
	var rec *toolstack.Guest
	var err error
	if !pl.Env.Await("create-"+spec.Name, 120*sim.Second, func(p *sim.Proc) {
		rec, err = ts.CreateVM(p, toolstack.GuestConfig{
			Name: spec.Name, Image: spec.Image, CustomKernel: spec.CustomKernel,
			MemMB: spec.MemMB, VCPUs: spec.VCPUs, DiskMB: spec.DiskMB,
			Net: spec.Net, Disk: spec.Disk, ConstraintTag: spec.ConstraintTag,
			NetQueues: spec.NetQueues, DiskQueues: spec.DiskQueues,
			HVM: spec.HVM,
		})
	}) {
		return nil, fmt.Errorf("core: guest creation did not complete")
	}
	if err != nil {
		return nil, err
	}
	g := &Guest{Name: spec.Name, Dom: rec.Dom, VM: workload.VMOf(pl.HV, rec), rec: rec, pl: pl}
	pl.guests[rec.Dom] = g
	return g, nil
}

// DestroyGuest tears a guest down through its managing toolstack.
func (pl *Platform) DestroyGuest(g *Guest) error {
	var err error
	if !pl.Env.Await("destroy-"+g.Name, 30*sim.Second, func(p *sim.Proc) {
		for _, ts := range pl.Boot.Toolstacks {
			if err = ts.DestroyVM(p, g.Dom); err == nil {
				break
			}
		}
	}) {
		return fmt.Errorf("core: destroy did not complete")
	}
	if err == nil {
		delete(pl.guests, g.Dom)
	}
	return err
}

// SetNetBackRestartPolicy configures microreboots for every NetBack.
func (pl *Platform) SetNetBackRestartPolicy(policy RestartPolicy) error {
	for _, nb := range pl.Boot.NetBacks {
		if err := pl.manage(nb, policy); err != nil {
			return err
		}
	}
	return nil
}

// SetBlkBackRestartPolicy configures microreboots for every BlkBack.
func (pl *Platform) SetBlkBackRestartPolicy(policy RestartPolicy) error {
	for _, bb := range pl.Boot.BlkBacks {
		if err := pl.manage(bb, policy); err != nil {
			return err
		}
	}
	return nil
}

// manage hands c to the Builder's restart engine under policy; a zero
// interval takes it off again.
func (pl *Platform) manage(c snapshot.Restartable, policy RestartPolicy) error {
	if pl.Profile == MonolithicDom0 {
		return fmt.Errorf("core: microreboots need the shard architecture: %w", xtypes.ErrInvalid)
	}
	pol := snapshot.Policy{Kind: snapshot.PolicyTimer, Interval: policy.Interval, Fast: policy.Fast}
	if policy.Interval <= 0 {
		pol = snapshot.Policy{Kind: snapshot.PolicyNone}
	}
	return pl.Boot.Builder.SetRestartPolicy(c, pol)
}

// RestartStats reports microreboot accounting for a component domain.
func (pl *Platform) RestartStats(dom xtypes.DomID) (snapshot.Stats, bool) {
	return pl.Boot.Builder.RestartStats(dom)
}

// Advance runs the virtual clock forward by d.
func (pl *Platform) Advance(d sim.Duration) { pl.Env.RunFor(d) }

// Now reports the current virtual time.
func (pl *Platform) Now() sim.Time { return pl.Env.Now() }

// RunWorkload executes fn inside a sim process and advances time until it
// returns (bounded by limit).
func (pl *Platform) RunWorkload(limit sim.Duration, fn func(p *sim.Proc)) error {
	if !pl.Env.Await("workload", limit, fn) {
		return fmt.Errorf("core: workload exceeded %v", limit)
	}
	return nil
}

// Shutdown reaps every simulation process. The platform is unusable after.
func (pl *Platform) Shutdown() { pl.Env.Shutdown() }

// Components describes the platform's live control-plane domains.
func (pl *Platform) Components() []ComponentInfo {
	var out []ComponentInfo
	for _, d := range pl.HV.Domains() {
		if _, isGuest := pl.guests[d.ID]; isGuest {
			continue
		}
		out = append(out, ComponentInfo{
			Dom:        d.ID,
			Name:       d.Name,
			Image:      d.Cfg.OSImage,
			MemMB:      d.Mem.MaxMB(),
			Shard:      d.IsShard(),
			Privileged: d.Priv().ControlAll || len(d.Priv().Hypercalls) > 0,
			Clients:    d.Clients(),
		})
	}
	return out
}

// ComponentInfo is one control-plane domain's inventory row.
type ComponentInfo struct {
	Dom        xtypes.DomID
	Name       string
	Image      string
	MemMB      int
	Shard      bool
	Privileged bool
	Clients    []xtypes.DomID
}

// SecurityReport runs the §6.2.1 containment analysis with attacker as the
// compromised tenant.
func (pl *Platform) SecurityReport(attacker xtypes.DomID) seceval.Report {
	an := seceval.NewAnalyzer(pl.Boot, seceval.Options{
		DeprivilegedGuests: true,
		Attacker:           attacker,
		QemuOf:             xtypes.DomIDNone,
	})
	return an.Run()
}

// TCB computes the platform's trusted computing base (§6.2).
func (pl *Platform) TCB() seceval.TCBReport { return seceval.TCB(pl.Boot) }

// DependentsOf answers the §3.2.2 forensic query: which guests depended on
// the given shard during [from, to].
func (pl *Platform) DependentsOf(shard xtypes.DomID, from, to sim.Time) []xtypes.DomID {
	return pl.Log.DependentsOf(shard, from, to)
}

// DelegateDrivers hands the platform's driver shards to the toolstack at
// index i — the private-cloud scenario of §3.4.2, where each user receives a
// personal toolstack with its shards' administrative privileges delegated to
// it. The Builder performs the delegation (it administers the shards).
func (pl *Platform) DelegateDrivers(i int) error {
	if pl.Profile == MonolithicDom0 {
		return fmt.Errorf("core: delegation needs the shard architecture: %w", xtypes.ErrInvalid)
	}
	if i < 0 || i >= len(pl.Boot.Toolstacks) {
		return fmt.Errorf("core: toolstack %d: %w", i, xtypes.ErrNotFound)
	}
	ts := pl.Boot.Toolstacks[i]
	for _, nb := range pl.Boot.NetBacks {
		if err := pl.HV.Delegate(pl.Boot.BuilderDom, nb.Dom, ts.Dom); err != nil {
			return err
		}
		ts.NetBacks = appendUniqueNet(ts.NetBacks, nb)
	}
	for _, bb := range pl.Boot.BlkBacks {
		if err := pl.HV.Delegate(pl.Boot.BuilderDom, bb.Dom, ts.Dom); err != nil {
			return err
		}
		ts.BlkBacks = appendUniqueBlk(ts.BlkBacks, bb)
	}
	return nil
}

func appendUniqueNet(list []*netdrv.Backend, b *netdrv.Backend) []*netdrv.Backend {
	for _, x := range list {
		if x == b {
			return list
		}
	}
	return append(list, b)
}

func appendUniqueBlk(list []*blkdrv.Backend, b *blkdrv.Backend) []*blkdrv.Backend {
	for _, x := range list {
		if x == b {
			return list
		}
	}
	return append(list, b)
}

// DedupScan runs one same-page-sharing pass over all domains (the memory
// density mechanism the paper's introduction motivates) and returns its
// statistics. EffectiveFreeMB reflects the reclaimed headroom afterwards.
func (pl *Platform) DedupScan() mm.DedupStats { return pl.HV.MM.Dedup() }

// EffectiveFreeMB is free machine memory including frames reclaimed by
// same-page sharing.
func (pl *Platform) EffectiveFreeMB() int { return pl.HV.MM.EffectiveFreeMB() }

// ProbeCompromise assumes component is fully attacker-controlled and
// dynamically attempts hostile operations against the live hypervisor (the
// §6.2 argument, exercised rather than asserted).
func (pl *Platform) ProbeCompromise(component, victim xtypes.DomID) seceval.CapabilityProbe {
	return seceval.Probe(pl.Boot, component, victim)
}
