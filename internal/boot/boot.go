// Package boot assembles and boots the platform in its two profiles:
//
//   - BootXoar: the §5.2 sequence. Xen creates the Bootstrapper, which
//     starts XenStore (State then Logic), the Console Manager, the Builder,
//     and PCIBack; PCIBack enumerates the bus and udev-style rules request
//     NetBack/BlkBack driver domains from the Builder for each controller;
//     finally the Toolstacks come up and the Bootstrapper destroys itself.
//     Components boot in parallel where the dependency order allows, which
//     is where the Table 6.2 speedup comes from.
//
//   - BootDom0: the stock sequence. Xen creates a single monolithic control
//     VM that initializes hardware, starts every service in order, and
//     holds full privilege over the system.
//
// Run is the one way code outside the simulation boots a host: it runs
// either sequence on the host's clock and returns once boot is complete.
package boot

import (
	"fmt"
	"strconv"

	"xoar/internal/blkdrv"
	"xoar/internal/builder"
	"xoar/internal/capability"
	"xoar/internal/consolemgr"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/netdrv"
	"xoar/internal/osimage"
	"xoar/internal/pciback"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/telemetry"
	"xoar/internal/toolstack"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// xenBoot is firmware + bootloader + hypervisor bring-up, common to both
// profiles (power-on to first domain).
const xenBoot = 8 * sim.Second

// Timings records the boot milestones Table 6.2 reports.
type Timings struct {
	// ConsoleReady is when a login prompt appears on the console.
	ConsoleReady sim.Time
	// PingReady is when the host answers network traffic.
	PingReady sim.Time
	// Done is when the full platform (toolstacks included) is up.
	Done sim.Time
}

// Options configure a boot.
type Options struct {
	// Toolstacks is the number of management toolstacks (Xoar profile).
	Toolstacks int
	// DestroyPCIBack removes PCIBack after boot (§5.3). Ignored by Dom0.
	DestroyPCIBack bool
	// Serialize disables parallel component boot (Table 6.2 ablation).
	Serialize bool
	// NoConsole omits the Console Manager — "in commercial hosting
	// solutions, console access is largely absent rendering the Console
	// Manager redundant" (§6.1.1); with DestroyPCIBack this is the paper's
	// 512MB minimal configuration.
	NoConsole bool
	// Telemetry, when non-nil, is wired into every instrumented component
	// (Builder, restart engine, XenStore, driver backends). Nil disables the
	// whole layer at negligible cost.
	Telemetry *telemetry.Registry
	// GuestQuota raises each Toolstack's MaxVMs above the conservative
	// default, for high-density hosts (serverless churn packs hundreds of
	// short-lived guests behind one toolstack). Zero keeps the default.
	GuestQuota int
}

// Platform is the assembled system, either profile.
type Platform struct {
	HV      *hv.Hypervisor
	Catalog *osimage.Catalog

	XenStoreState *xenstore.State
	XenStoreLogic *xenstore.Logic
	Console       *consolemgr.Manager
	Builder       *builder.Builder
	PCIBack       *pciback.PCIBack
	NetBacks      []*netdrv.Backend
	BlkBacks      []*blkdrv.Backend
	Toolstacks    []*toolstack.Toolstack
	Engine        *snapshot.Engine // the Builder's restart engine (Xoar profile only)

	// Domain IDs of the control-plane components, for the security graph.
	BootstrapperDom xtypes.DomID
	XSStateDom      xtypes.DomID
	XSLogicDom      xtypes.DomID
	ConsoleDom      xtypes.DomID
	BuilderDom      xtypes.DomID
	PCIBackDom      xtypes.DomID
	Dom0            xtypes.DomID // monolithic profile only

	// Monolithic reports which profile booted.
	Monolithic bool

	Timings Timings
}

// domainPath is dom's XenStore subtree, /local/domain/<id>.
func domainPath(dom xtypes.DomID) string {
	return "/local/domain/" + strconv.FormatUint(uint64(dom), 10)
}

// bootShardDirect creates and boots a component domain directly on caller's
// privilege: Xen's for the Bootstrapper, the Bootstrapper's own for the
// shards it starts before the Builder serves.
func bootShardDirect(p *sim.Proc, h *hv.Hypervisor, caller xtypes.DomID, cat *osimage.Catalog,
	name, image string, priv hv.Assignment) (xtypes.DomID, error) {
	img, err := cat.Lookup(image)
	if err != nil {
		return xtypes.DomIDNone, err
	}
	d, err := h.CreateDomain(caller, hv.DomainConfig{
		Name: name, MemMB: img.MemMB, Shard: true, OSImage: img.Name,
	})
	if err != nil {
		return xtypes.DomIDNone, err
	}
	if err := h.AssignPrivileges(caller, d.ID, priv); err != nil {
		return xtypes.DomIDNone, err
	}
	if err := h.Unpause(caller, d.ID); err != nil {
		return xtypes.DomIDNone, err
	}
	p.Sleep(img.BootTime())
	return d.ID, nil
}

// Shard whitelists come from the generated capability manifest
// (internal/capability/CAPMANIFEST.json): capgen derives each role's grant
// set from the privilege matrix privflow builds out of internal/hv, and the
// drift gates keep the artifact in lockstep with both the analyzer and this
// file. Boot never names a Hyper* constant for a shard directly.
func shardAssignment(role string) hv.Assignment {
	return hv.Assignment{
		Hypercalls: capability.Hypercalls(role),
		IOPorts:    capability.IOPorts(role),
	}
}

// runLimit bounds a boot in modeled time. Both profiles finish well inside
// it, serialized Xoar included.
const runLimit = 300 * sim.Second

// Run boots h in the chosen profile from the default image catalog,
// advancing h's clock until boot completes (sim.Env.Await). The caller
// builds h, so an audit sink or OnDestroy hook is in place before the first
// domain exists. A failed boot returns a nil Platform.
func Run(h *hv.Hypervisor, monolithic bool, opts Options) (*Platform, error) {
	bootFn := BootXoar
	if monolithic {
		bootFn = BootDom0
	}
	var pl *Platform
	var err error
	if !h.Env.Await("boot", runLimit, func(p *sim.Proc) {
		pl, err = bootFn(p, h, osimage.DefaultCatalog(), opts)
	}) {
		return nil, fmt.Errorf("boot: did not complete within %v", runLimit)
	}
	return pl, err
}

// BootXoar boots the disaggregated platform. Call from a sim process.
func BootXoar(p *sim.Proc, h *hv.Hypervisor, cat *osimage.Catalog, opts Options) (*Platform, error) {
	if opts.Toolstacks <= 0 {
		opts.Toolstacks = 1
	}
	h.EnforceShardIVC = true
	pl := &Platform{HV: h, Catalog: cat}

	bootSpan := opts.Telemetry.StartSpan("boot", "boot:xoar", p.Now())
	defer func() { bootSpan.EndAt(p.Now()) }()

	p.Sleep(xenBoot)

	// Xen creates the Bootstrapper. It is Critical in stock Xen terms, but
	// Xoar modifies the hypervisor to let it exit (§5.8) — SelfExit encodes
	// that, so Critical stays false here.
	bs, err := bootShardDirect(p, h, hv.SystemCaller, cat, "bootstrapper", osimage.ImgBootstrapper, shardAssignment(capability.RoleBootstrapper))
	if err != nil {
		return nil, err
	}
	pl.BootstrapperDom = bs

	// --- XenStore first: everything else depends on it (§5.2). -------------
	pl.XSStateDom, err = bootShardDirect(p, h, bs, cat, "xenstore-state", osimage.ImgXenStoreS, hv.Assignment{})
	if err != nil {
		return nil, err
	}
	pl.XSLogicDom, err = bootShardDirect(p, h, bs, cat, "xenstore-logic", osimage.ImgXenStoreL, hv.Assignment{})
	if err != nil {
		return nil, err
	}
	pl.XenStoreState = xenstore.NewState()
	pl.XenStoreLogic = xenstore.NewLogic(pl.XenStoreState)
	pl.XenStoreLogic.SetMetrics(opts.Telemetry)
	// Figure 5.1: XenStore-Logic is restarted on each request; the contents
	// live in XenStore-State, so the policy costs nothing.
	pl.XenStoreLogic.RestartPerRequest = true
	// xenstored's internal connection, used to hand each directly-booted
	// shard ownership of its /local/domain/<id> subtree (the Builder does
	// the same for domains it builds).
	xsAdmin := pl.XenStoreLogic.Connect(pl.XSLogicDom, true)
	// Reap a destroyed domain's XenStore footprint: its connection and its
	// /local/domain/<id> subtree.
	h.OnDestroy(func(id xtypes.DomID) {
		pl.XenStoreLogic.Disconnect(id)
		// Domains without a registered tree (the Bootstrapper) make this a
		// harmless not-found.
		xsAdmin.Rm(domainPath(id))
	})
	grantTree := func(dom xtypes.DomID) {
		base := domainPath(dom)
		xsAdmin.Mkdir(base)
		xsAdmin.SetPerms(base, xenstore.Perms{Owner: dom, Read: []xtypes.DomID{xtypes.DomIDNone}})
	}

	// --- Console Manager: boots in parallel with the rest (it is a Linux
	// image and dominates the console-ready milestone). ---------------------
	consoleDone := sim.NewGate(h.Env)
	if opts.NoConsole {
		consoleDone.Open()
	}
	bootConsole := func(cp *sim.Proc) {
		dom, cerr := bootShardDirect(cp, h, bs, cat, "console", osimage.ImgConsole, shardAssignment(capability.RoleConsole))
		if cerr != nil {
			err = cerr
			consoleDone.Open()
			return
		}
		pl.ConsoleDom = dom
		grantTree(dom)
		h.RouteHardwareVIRQ(dom, xtypes.VIRQConsole, dom)
		pl.Console = consolemgr.New(h, dom, h.Machine.Serial, pl.XenStoreLogic.Connect(dom, false))
		if cerr := pl.Console.Start(cp); cerr != nil {
			err = cerr
			consoleDone.Open()
			return
		}
		pl.Timings.ConsoleReady = cp.Now()
		consoleDone.Open()
	}
	switch {
	case opts.NoConsole:
		// No console: the login-prompt milestone coincides with the network.
	case opts.Serialize:
		bootConsole(p)
	default:
		h.Env.Spawn("boot-console", bootConsole)
	}

	// --- Builder. -----------------------------------------------------------
	pl.BuilderDom, err = bootShardDirect(p, h, bs, cat, "builder", osimage.ImgBuilder, shardAssignment(capability.RoleBuilder))
	if err != nil {
		return nil, err
	}
	pl.Builder = builder.New(h, pl.BuilderDom, cat, pl.XenStoreLogic.Connect(pl.BuilderDom, true))
	pl.Builder.XenStoreDom = pl.XSLogicDom
	pl.Builder.Authorize(bs)
	pl.Builder.SetMetrics(opts.Telemetry)
	h.Env.Spawn("builder-serve", pl.Builder.Serve)
	pl.Engine = pl.Builder.Engine()

	// --- PCIBack: hardware init and enumeration. ----------------------------
	pl.PCIBackDom, err = bootShardDirect(p, h, bs, cat, "pciback", osimage.ImgPCIBack, shardAssignment(capability.RolePCIBack))
	if err != nil {
		return nil, err
	}
	grantTree(pl.PCIBackDom)
	pl.PCIBack = pciback.New(h, pl.PCIBackDom, h.Machine.Bus, pl.XenStoreLogic.Connect(pl.PCIBackDom, false))
	if err := pl.PCIBack.Start(p); err != nil {
		return nil, err
	}

	// --- udev: a driver domain per network and disk controller (§5.2). ------
	type backendResult struct {
		nb *netdrv.Backend
		bb *blkdrv.Backend
	}
	results := sim.NewChan[backendResult](h.Env)
	backendReq := func(dev hw.Device) builder.Request {
		name, role := "netback", capability.RoleNetBack
		image := osimage.ImgNetBack
		if dev.Class() == xtypes.DevDisk {
			name, role, image = "blkback", capability.RoleBlkBack, osimage.ImgBlkBack
		}
		priv := shardAssignment(role)
		priv.PCIDevices = []xtypes.PCIAddr{dev.Addr()}
		return builder.Request{
			Requester:  bs,
			Name:       name,
			Image:      image,
			Shard:      true,
			Privileges: priv,
		}
	}
	startBackend := func(dev hw.Device, dom xtypes.DomID) func(*sim.Proc) {
		return func(bp *sim.Proc) {
			xs := pl.XenStoreLogic.Connect(dom, false)
			switch dev.Class() {
			case xtypes.DevNIC:
				b := netdrv.NewBackend(h, dom, findNIC(h, dev.Addr()), xs)
				b.Start(bp)
				h.VMSnapshot(dom)
				results.Send(backendResult{nb: b})
			case xtypes.DevDisk:
				b := blkdrv.NewBackend(h, dom, findDisk(h, dev.Addr()), xs)
				b.Start(bp)
				h.VMSnapshot(dom)
				results.Send(backendResult{bb: b})
			}
		}
	}
	var bdevs []hw.Device
	for _, dev := range pl.PCIBack.Devices() {
		if dev.Class() == xtypes.DevNIC || dev.Class() == xtypes.DevDisk {
			bdevs = append(bdevs, dev)
		}
	}
	expected := len(bdevs)
	if opts.Serialize {
		for _, dev := range bdevs {
			dom, berr := pl.Builder.Submit(p, backendReq(dev))
			if berr != nil {
				return nil, berr
			}
			startBackend(dev, dom)(p)
		}
	} else if expected > 0 {
		// One batch for the whole driver fleet: the Builder validates every
		// udev request before scrubbing the first page, then pipelines
		// construction of shard i+1 with the supervised boot of shard i.
		reqs := make([]builder.Request, expected)
		for i, dev := range bdevs {
			reqs[i] = backendReq(dev)
		}
		doms, errs := pl.Builder.SubmitAll(p, reqs)
		for _, berr := range errs {
			if berr != nil {
				return nil, berr
			}
		}
		for i, dev := range bdevs {
			h.Env.Spawn("boot-"+dev.Name(), startBackend(dev, doms[i]))
		}
	}
	for i := 0; i < expected; i++ {
		res, _ := results.Recv(p)
		if res.nb != nil {
			res.nb.SetMetrics(opts.Telemetry)
			pl.NetBacks = append(pl.NetBacks, res.nb)
			// The Builder (which hosts the restart engine) administers the
			// driver shards: it must be able to roll them back.
			if err := h.Delegate(bs, res.nb.Dom, pl.BuilderDom); err != nil {
				return nil, err
			}
		}
		if res.bb != nil {
			res.bb.SetMetrics(opts.Telemetry)
			pl.BlkBacks = append(pl.BlkBacks, res.bb)
			if err := h.Delegate(bs, res.bb.Dom, pl.BuilderDom); err != nil {
				return nil, err
			}
		}
	}
	pl.Timings.PingReady = p.Now()

	// --- Toolstacks. ----------------------------------------------------------
	tsReqs := make([]builder.Request, opts.Toolstacks)
	for i := range tsReqs {
		tsReqs[i] = builder.Request{
			Requester:  bs,
			Name:       fmt.Sprintf("toolstack-%d", i),
			Image:      osimage.ImgToolstack,
			Shard:      true,
			Privileges: shardAssignment(capability.RoleToolstack),
		}
	}
	var tsDoms []xtypes.DomID
	if opts.Serialize {
		for _, req := range tsReqs {
			dom, terr := pl.Builder.Submit(p, req)
			if terr != nil {
				return nil, terr
			}
			tsDoms = append(tsDoms, dom)
		}
	} else {
		// The management fleet is also one pipelined batch.
		doms, errs := pl.Builder.SubmitAll(p, tsReqs)
		for _, terr := range errs {
			if terr != nil {
				return nil, terr
			}
		}
		tsDoms = doms
	}
	for i, dom := range tsDoms {
		ts := toolstack.New(h, dom, pl.XenStoreLogic, pl.Builder)
		ts.Console = pl.Console
		if opts.GuestQuota > 0 {
			ts.SetQuota(toolstack.Quota{MaxVMs: opts.GuestQuota, MaxMemMB: 1 << 20})
		}
		// Delegate every driver shard to the first toolstack by default;
		// additional toolstacks receive delegations explicitly (private
		// cloud scenario, §3.4.2).
		if i == 0 {
			for _, nb := range pl.NetBacks {
				h.Delegate(bs, nb.Dom, dom)
				ts.NetBacks = append(ts.NetBacks, nb)
			}
			for _, bb := range pl.BlkBacks {
				h.Delegate(bs, bb.Dom, dom)
				ts.BlkBacks = append(ts.BlkBacks, bb)
			}
		}
		pl.Toolstacks = append(pl.Toolstacks, ts)
	}

	// Wait for the console before declaring boot complete.
	consoleDone.Wait(p)
	if err != nil {
		return nil, err
	}
	if opts.NoConsole {
		pl.Timings.ConsoleReady = pl.Timings.PingReady
	}
	if pl.Timings.PingReady < pl.Timings.ConsoleReady {
		// The host answers pings only once both the network path and the
		// console's login services are up.
		pl.Timings.PingReady = pl.Timings.ConsoleReady
	}

	// --- Steady state: shrink the TCB (§5.2, §5.3). --------------------------
	pl.Builder.Revoke(bs)
	// The Builder itself remains authorized to rebuild shards: in-place
	// driver upgrades replace a dead driver domain with a fresh one.
	pl.Builder.Authorize(pl.BuilderDom)
	if opts.DestroyPCIBack {
		if err := pl.PCIBack.SelfDestruct(p); err != nil {
			return nil, err
		}
	}
	if err := h.SelfExit(bs); err != nil {
		return nil, err
	}
	pl.Timings.Done = p.Now()
	return pl, nil
}

func findNIC(h *hv.Hypervisor, addr xtypes.PCIAddr) *hw.NIC {
	for _, n := range h.Machine.NICs() {
		if n.Addr() == addr {
			return n
		}
	}
	return nil
}

func findDisk(h *hv.Hypervisor, addr xtypes.PCIAddr) *hw.Disk {
	for _, d := range h.Machine.Disks() {
		if d.Addr() == addr {
			return d
		}
	}
	return nil
}
