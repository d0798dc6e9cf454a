package boot

import (
	"xoar/internal/blkdrv"
	"xoar/internal/builder"
	"xoar/internal/consolemgr"
	"xoar/internal/hv"
	"xoar/internal/netdrv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// BootDom0 boots the stock monolithic platform: one control VM hosting
// every service, with full privilege over the system. The same component
// objects are instantiated as in Xoar — but all homed in the single Dom0
// domain, co-located on its two vCPUs (the XenServer default, §6.1), inside
// one trust boundary, and brought up strictly sequentially.
func BootDom0(p *sim.Proc, h *hv.Hypervisor, cat *osimage.Catalog, opts Options) (*Platform, error) {
	h.EnforceShardIVC = false
	pl := &Platform{HV: h, Catalog: cat, Monolithic: true}

	bootSpan := opts.Telemetry.StartSpan("boot", "boot:dom0", p.Now())
	defer func() { bootSpan.EndAt(p.Now()) }()

	p.Sleep(xenBoot)

	img, err := cat.Lookup(osimage.ImgDom0)
	if err != nil {
		return nil, err
	}
	d0, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{
		Name: "dom0", MemMB: img.MemMB, VCPUs: 2, Critical: true, OSImage: img.Name,
	})
	if err != nil {
		return nil, err
	}
	if err := h.AssignPrivileges(hv.SystemCaller, d0.ID, hv.Assignment{
		ControlAll: true,
		IOPorts:    []string{"console", "pci"},
	}); err != nil {
		return nil, err
	}
	if err := h.Unpause(hv.SystemCaller, d0.ID); err != nil {
		return nil, err
	}
	pl.Dom0 = d0.ID
	pl.BuilderDom = d0.ID
	pl.PCIBackDom = d0.ID
	pl.XSLogicDom = d0.ID
	h.RouteHardwareVIRQ(d0.ID, xtypes.VIRQConsole, d0.ID)

	// Kernel boot, then in-kernel hardware bring-up: PCI enumeration plus
	// every controller's init, strictly in sequence.
	p.Sleep(img.KernelBoot)
	h.Machine.Bus.ClaimConfigSpace(d0.ID)
	if _, err := h.Machine.Bus.Enumerate(p, d0.ID); err != nil {
		return nil, err
	}
	for _, nic := range h.Machine.NICs() {
		h.Machine.Bus.Assign(nic.Addr(), d0.ID)
		nic.Reset(p)
	}
	for _, disk := range h.Machine.Disks() {
		h.Machine.Bus.Assign(disk.Addr(), d0.ID)
		disk.Reset(p)
	}

	// Userspace services: xenstored, xenconsoled, udev, the toolstack, and
	// the distribution's init scripts.
	pl.XenStoreState = xenstore.NewState()
	pl.XenStoreLogic = xenstore.NewLogic(pl.XenStoreState)
	pl.XenStoreLogic.SetMetrics(opts.Telemetry)
	xs := pl.XenStoreLogic.Connect(d0.ID, true)
	// Same XenStore reaping as the Xoar profile: xenstored cleans up after
	// dead domains regardless of how the control plane is packaged.
	h.OnDestroy(func(id xtypes.DomID) {
		pl.XenStoreLogic.Disconnect(id)
		xs.Rm(domainPath(id))
	})

	pl.Console = consolemgr.New(h, d0.ID, xs)
	if err := pl.Console.Start(p); err != nil {
		return nil, err
	}
	for _, nic := range h.Machine.NICs() {
		b := netdrv.NewBackend(h, d0.ID, nic, xs)
		b.SetMetrics(opts.Telemetry)
		b.Start(p)
		pl.NetBacks = append(pl.NetBacks, b)
	}
	for _, disk := range h.Machine.Disks() {
		b := blkdrv.NewBackend(h, d0.ID, disk, xs)
		b.CoLocated = true
		b.SetMetrics(opts.Telemetry)
		b.Start(p)
		pl.BlkBacks = append(pl.BlkBacks, b)
	}
	p.Sleep(img.ServiceBoot)
	pl.Timings.ConsoleReady = p.Now()

	// The monolithic profile builds no shards through the Builder during
	// boot — everything above came up in-process inside Dom0 — so there is
	// no batch to SubmitAll here; the Builder exists only for post-boot
	// guest creation (where toolstacks may still batch via SubmitAll).
	pl.Builder = builder.New(h, d0.ID, cat, xs)
	// Stock Xen has no microreboot machinery: Rollback/Rebuild/Recover on
	// this profile refuse with xtypes.ErrNoMicroreboot (§3.3 is Xoar-only).
	pl.Builder.Monolithic = true
	pl.Builder.SetMetrics(opts.Telemetry)
	h.Env.Spawn("dom0-builder-serve", pl.Builder.Serve)
	ts := toolstack.New(h, d0.ID, pl.XenStoreLogic, pl.Builder)
	ts.Console = pl.Console
	ts.NetBacks = pl.NetBacks
	ts.BlkBacks = pl.BlkBacks
	pl.Toolstacks = []*toolstack.Toolstack{ts}

	// Late network negotiation (DHCP, bridge setup) delays ping response
	// past the login prompt, as the paper's measurement notes.
	p.Sleep(3300 * sim.Millisecond)
	pl.Timings.PingReady = p.Now()
	pl.Timings.Done = p.Now()
	return pl, nil
}
