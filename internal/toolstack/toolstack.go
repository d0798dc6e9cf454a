// Package toolstack implements the management Toolstack shard (§4.6, §5.6):
// a libxl-flavoured VM manager. A Toolstack creates guests by passing
// parameters to the Builder, wires devices by selecting among the driver
// shards *delegated to it*, enforces sharing-constraint groups (§3.2.1) and
// resource quotas (§3.4.2), and manages only the VMs it built — the
// hypervisor audits every management call against the parent-toolstack flag.
package toolstack

// The toolstack is the control plane: it holds *handles* to the driver and
// emulation shards delegated to it so it can orchestrate device attach, the
// in-model analogue of xl's hotplug scripts. Every runtime data path those
// handles set up still crosses the hypervisor's IVC audit; the imports below
// carry no shard-to-shard data channel, which is why each one is suppressed
// rather than the layering rule relaxed.
import (
	"fmt"

	//xoarlint:allow(layering) control plane holds delegated BlkBack handles; attach paths ride hv-audited IVC
	"xoar/internal/blkdrv"
	"xoar/internal/builder"
	//xoarlint:allow(layering) control plane wires guest consoles through the delegated Console Manager handle
	"xoar/internal/consolemgr"
	"xoar/internal/hv"
	"xoar/internal/migrate"
	//xoarlint:allow(layering) control plane holds delegated NetBack handles; attach paths ride hv-audited IVC
	"xoar/internal/netdrv"
	//xoarlint:allow(layering) control plane launches a per-HVM-guest QemuVM and keeps its handle for teardown
	"xoar/internal/qemudm"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// GuestConfig describes a guest VM to create.
type GuestConfig struct {
	Name  string
	Image string
	// CustomKernel routes the build through the bootloader (§5.2).
	CustomKernel bool
	MemMB        int
	VCPUs        int
	// Net / Disk select whether to attach a vif / vbd.
	Net  bool
	Disk bool
	// NetQueues selects the vif's ring-pair count (0 or 1 = single queue).
	// Multi-queue vifs hash flows across the rings so one guest can keep a
	// 10G+ NIC saturated past a single ring's slot count.
	NetQueues int
	// DiskQueues is the vbd counterpart, for NVMe-class disks.
	DiskQueues int
	// ConstraintTag restricts shard sharing: shards serving this guest may
	// only be shared with guests carrying the same tag (§3.2.1). Empty means
	// unconstrained.
	ConstraintTag string
	// HVM runs an unmodified guest: its devices are emulated by a dedicated
	// QemuVM stub domain (§4.5.2), which forwards I/O through its own PV
	// frontends. PV device flags (Net/Disk) then wire the QemuVM, not the
	// guest, to the driver shards.
	HVM bool
}

// Guest is the Toolstack's record of a VM it manages.
type Guest struct {
	Dom  xtypes.DomID
	Cfg  GuestConfig
	Net  *netdrv.Frontend
	Blk  *blkdrv.Frontend
	NetB *netdrv.Backend
	BlkB *blkdrv.Backend
	// Qemu is the per-guest device model for HVM guests (nil for PV).
	Qemu *qemudm.QemuVM
	// QemuDom is the stub domain hosting Qemu.
	QemuDom xtypes.DomID
}

// Quota bounds a Toolstack's resource usage (§3.4.2).
type Quota struct {
	MaxVMs   int
	MaxMemMB int
}

// Toolstack is one management domain.
type Toolstack struct {
	H       *hv.Hypervisor
	Dom     xtypes.DomID
	XS      *xenstore.Logic
	Builder *builder.Builder
	Console *consolemgr.Manager

	// Delegated driver shards this Toolstack may use (§5.6: "A Toolstack can
	// only use shards that have been delegated to it").
	NetBacks []*netdrv.Backend
	BlkBacks []*blkdrv.Backend

	// constraints tracks the tag each shard is currently dedicated to.
	// The tag locks on first tagged client and clears when unused.
	constraints map[xtypes.DomID]string
	clientCount map[xtypes.DomID]int

	quota  Quota
	guests map[xtypes.DomID]*Guest
	usedMB int
}

// New constructs a Toolstack in domain dom.
func New(h *hv.Hypervisor, dom xtypes.DomID, xs *xenstore.Logic, b *builder.Builder) *Toolstack {
	return &Toolstack{
		H:           h,
		Dom:         dom,
		XS:          xs,
		Builder:     b,
		constraints: make(map[xtypes.DomID]string),
		clientCount: make(map[xtypes.DomID]int),
		quota:       Quota{MaxVMs: 64, MaxMemMB: 1 << 20},
		guests:      make(map[xtypes.DomID]*Guest),
	}
}

// SetQuota replaces the toolstack's resource quota.
func (ts *Toolstack) SetQuota(q Quota) { ts.quota = q }

// Manages reports whether dom is a guest this toolstack manages.
func (ts *Toolstack) Manages(dom xtypes.DomID) bool {
	_, ok := ts.guests[dom]
	return ok
}

// pickShard selects a delegated shard compatible with the guest's constraint
// tag, locking the shard to that tag. Creation fails rather than violating a
// constraint (§3.2.1).
func pickShard[T any](ts *Toolstack, shards []T, domOf func(T) xtypes.DomID, tag string) (T, error) {
	var zero T
	if len(shards) == 0 {
		return zero, fmt.Errorf("toolstack: no delegated shard available: %w", xtypes.ErrNotDelegated)
	}
	for _, s := range shards {
		d := domOf(s)
		cur, locked := ts.constraints[d]
		if !locked || cur == tag {
			if tag != "" {
				ts.constraints[d] = tag
			}
			ts.clientCount[d]++
			return s, nil
		}
	}
	return zero, fmt.Errorf("toolstack: no shard satisfies constraint %q: %w", tag, xtypes.ErrConstraint)
}

// releaseShard drops a client and unlocks the tag when unused.
func (ts *Toolstack) releaseShard(d xtypes.DomID) {
	if ts.clientCount[d] > 0 {
		ts.clientCount[d]--
	}
	if ts.clientCount[d] == 0 {
		delete(ts.constraints, d)
	}
}

// mem is the memory cfg charges against the toolstack's quota.
func (cfg GuestConfig) mem() int {
	if cfg.MemMB == 0 {
		return 1024
	}
	return cfg.MemMB
}

// admit checks a new guest against the quota and reserves the driver shards
// its devices need, so constraint failures never leave half-built VMs. The
// returned record holds the reservations; on error nothing stays reserved.
func (ts *Toolstack) admit(cfg GuestConfig) (*Guest, error) {
	if len(ts.guests) >= ts.quota.MaxVMs {
		return nil, fmt.Errorf("toolstack: VM quota %d: %w", ts.quota.MaxVMs, xtypes.ErrQuota)
	}
	if ts.usedMB+cfg.mem() > ts.quota.MaxMemMB {
		return nil, fmt.Errorf("toolstack: memory quota: %w", xtypes.ErrQuota)
	}
	g := &Guest{Cfg: cfg}
	var err error
	if cfg.Net {
		g.NetB, err = pickShard(ts, ts.NetBacks, func(b *netdrv.Backend) xtypes.DomID { return b.Dom }, cfg.ConstraintTag)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Disk {
		g.BlkB, err = pickShard(ts, ts.BlkBacks, func(b *blkdrv.Backend) xtypes.DomID { return b.Dom }, cfg.ConstraintTag)
		if err != nil {
			ts.unreserve(g)
			return nil, err
		}
	}
	return g, nil
}

// CreateVM builds and wires a guest. A failure after the build destroys
// the new domains and releases everything the call took.
func (ts *Toolstack) CreateVM(p *sim.Proc, cfg GuestConfig) (*Guest, error) {
	g, err := ts.admit(cfg)
	if err != nil {
		return nil, err
	}
	g.Dom, err = ts.Builder.Submit(p, builder.Request{
		Requester:    ts.Dom,
		Name:         cfg.Name,
		Image:        cfg.Image,
		CustomKernel: cfg.CustomKernel,
		MemMB:        cfg.MemMB,
		VCPUs:        cfg.VCPUs,
	})
	if err != nil {
		ts.unreserve(g)
		return nil, err
	}

	if cfg.HVM {
		// Build the per-guest device model; the Builder fixes its image and
		// privileges and checks we are the guest's parent toolstack.
		g.QemuDom, err = ts.Builder.Submit(p, builder.Request{
			Requester: ts.Dom, Name: cfg.Name + "-qemu", QemuFor: g.Dom,
		})
		if err == nil {
			g.Qemu = qemudm.New(ts.H, g.QemuDom, g.Dom)
			// The QemuVM — not the guest — is the driver shards' client; its
			// PV frontends carry the emulated I/O.
			wired := &Guest{Dom: g.QemuDom, Cfg: GuestConfig{Name: cfg.Name + "-qemu", Net: cfg.Net, Disk: cfg.Disk}, NetB: g.NetB, BlkB: g.BlkB}
			err = ts.wireDevices(p, wired)
			g.Qemu.Blk = wired.Blk
		}
	} else {
		err = ts.wireDevices(p, g)
	}
	if err != nil {
		// The domains go first, so the hypervisor closes exactly the client
		// links this call opened; release returns the rest.
		ts.destroy(g)
		ts.release(g)
		return nil, err
	}

	ts.guests[g.Dom] = g
	ts.usedMB += cfg.mem()
	return g, nil
}

// wireDevices links the guest to its selected shards and connects the
// frontends; shared by CreateVM and Adopt.
func (ts *Toolstack) wireDevices(p *sim.Proc, g *Guest) error {
	dom, cfg := g.Dom, g.Cfg
	guestXS := ts.XS.Connect(dom, false)

	// Wire the network device.
	if g.NetB != nil {
		if err := ts.H.LinkShardClient(ts.Dom, g.NetB.Dom, dom); err != nil {
			return err
		}
		nq := cfg.NetQueues
		if nq < 1 {
			nq = 1
		}
		g.NetB.CreateVifQueues(dom, nq)
		g.Net = netdrv.NewFrontend(ts.H, dom, guestXS)
		if err := g.Net.Connect(p, g.NetB); err != nil {
			return err
		}
	}
	// Wire the disk: image creation is proxied to BlkBack (§5.4).
	if g.BlkB != nil {
		if err := ts.H.LinkShardClient(ts.Dom, g.BlkB.Dom, dom); err != nil {
			return err
		}
		imgName := fmt.Sprintf("%s-disk", cfg.Name)
		if err := g.BlkB.CreateImage(imgName); err != nil {
			return err
		}
		// The frontend is recorded as soon as the image is this guest's:
		// release deletes the image only for a record that holds one, so a
		// name collision never takes another guest's disk.
		g.Blk = blkdrv.NewFrontend(dom, guestXS)
		dq := cfg.DiskQueues
		if dq < 1 {
			dq = 1
		}
		if err := g.BlkB.CreateVbdQueues(dom, imgName, dq); err != nil {
			return err
		}
		if err := g.Blk.Connect(p, g.BlkB); err != nil {
			return err
		}
	}
	if ts.Console != nil {
		ts.Console.CreateConsole(dom)
	}
	return nil
}

// Adopt registers an already-running domain — typically one that just
// arrived via live migration — with this toolstack and wires the devices cfg
// asks for. The caller must already have made this toolstack the domain's
// parent; the hypervisor rejects the device linking otherwise.
func (ts *Toolstack) Adopt(p *sim.Proc, dom xtypes.DomID, cfg GuestConfig) (*Guest, error) {
	if _, ok := ts.guests[dom]; ok {
		return nil, fmt.Errorf("toolstack: adopt %v: %w", dom, xtypes.ErrExists)
	}
	g, err := ts.admit(cfg)
	if err != nil {
		return nil, err
	}
	g.Dom = dom
	// Register the newcomer in this host's XenStore: the Builder does this
	// for domains it builds, but a migrated domain arrives without a local
	// subtree. Toolstacks are privileged XenStore clients, as in xenstored.
	admin := ts.XS.Connect(ts.Dom, true)
	base := fmt.Sprintf("/local/domain/%d", dom)
	if err := admin.Mkdir(base); err != nil {
		ts.unreserve(g)
		return nil, err
	}
	admin.Write(base+"/name", cfg.Name)
	if err := admin.SetPerms(base, xenstore.Perms{Owner: dom, Read: []xtypes.DomID{xtypes.DomIDNone}}); err != nil {
		ts.unreserve(g)
		return nil, err
	}
	if err := ts.wireDevices(p, g); err != nil {
		ts.release(g)
		return nil, err
	}
	ts.guests[dom] = g
	ts.usedMB += cfg.mem()
	return g, nil
}

// DestroyVM tears a managed guest down. The hypervisor rejects the call for
// guests this Toolstack did not build.
func (ts *Toolstack) DestroyVM(p *sim.Proc, dom xtypes.DomID) error {
	g, ok := ts.guests[dom]
	if !ok {
		return fmt.Errorf("toolstack: %v not managed here: %w", dom, xtypes.ErrPerm)
	}
	ts.release(g)
	if err := ts.destroy(g); err != nil {
		return err
	}
	ts.usedMB -= g.Cfg.mem()
	delete(ts.guests, dom)
	return nil
}

// Forget drops a guest record whose domain is already gone — it migrated
// away. Everything the record holds on this host is released, but no
// destroy is issued against the (nonexistent) domain.
func (ts *Toolstack) Forget(dom xtypes.DomID) {
	g, ok := ts.guests[dom]
	if !ok {
		return
	}
	ts.release(g)
	ts.usedMB -= g.Cfg.mem()
	delete(ts.guests, dom)
}

// destroy destroys g's domain and, for an HVM guest, the device model that
// dies with it (Table 5.1: lifetime = guest VM).
func (ts *Toolstack) destroy(g *Guest) error {
	if err := ts.H.DestroyDomain(ts.Dom, g.Dom, "destroyed by toolstack"); err != nil {
		return err
	}
	if g.Qemu != nil {
		if err := ts.H.DestroyDomain(ts.Dom, g.QemuDom, "guest destroyed"); err != nil {
			return err
		}
		ts.XS.Disconnect(g.QemuDom)
	}
	ts.XS.Disconnect(g.Dom)
	return nil
}

// release gives back what g holds on this host: its vif and vbd with their
// shard-client links, its disk image, its console and its shard
// reservations. It serves DestroyVM, Forget and the failure exits of
// CreateVM and Adopt, so it takes only what the record shows was taken.
func (ts *Toolstack) release(g *Guest) {
	// An HVM guest's devices hang off its QemuVM.
	devDom, devName, blk := g.Dom, g.Cfg.Name, g.Blk
	if g.Qemu != nil {
		devDom, devName, blk = g.QemuDom, g.Cfg.Name+"-qemu", g.Qemu.Blk
	}
	// A domain that is already gone took its client links with it.
	_, err := ts.H.Domain(devDom)
	linked := err == nil
	if g.NetB != nil {
		g.NetB.RemoveVif(devDom)
		if linked {
			ts.H.UnlinkShardClient(ts.Dom, g.NetB.Dom, devDom)
		}
	}
	if g.BlkB != nil {
		g.BlkB.RemoveVbd(devDom)
		if linked {
			ts.H.UnlinkShardClient(ts.Dom, g.BlkB.Dom, devDom)
		}
		if blk != nil {
			g.BlkB.DeleteImage(devName + "-disk")
		}
	}
	if ts.Console != nil {
		ts.Console.RemoveConsole(g.Dom)
	}
	ts.unreserve(g)
}

// unreserve returns g's shard reservations.
func (ts *Toolstack) unreserve(g *Guest) {
	if g.NetB != nil {
		ts.releaseShard(g.NetB.Dom)
	}
	if g.BlkB != nil {
		ts.releaseShard(g.BlkB.Dom)
	}
}

// MigrateTo live-migrates dom, a guest this toolstack manages, to the host
// dst runs on and hands it over. This toolstack drives the pre-copy (the
// hypervisor audits its foreign-mapping rights over exactly this guest);
// dst's Builder constructs the receiving domain and makes dst its parent
// toolstack; dst then adopts it with the guest's recorded config, re-wiring
// its devices through dst's own driver shards. If the pre-copy fails the
// guest stays here. Once the domain has moved, its record here is released
// (Forget) even if the hand-off then fails.
func (ts *Toolstack) MigrateTo(p *sim.Proc, dom xtypes.DomID, dst *Toolstack, link migrate.Link) (*Guest, migrate.Result, error) {
	g, ok := ts.guests[dom]
	if !ok {
		return nil, migrate.Result{}, fmt.Errorf("toolstack: %v not managed here: %w", dom, xtypes.ErrPerm)
	}
	newDom, res, err := migrate.LiveMigrate(p, ts.H, ts.Dom, dom, dst.H, dst.Builder.Dom(), link, migrate.DefaultOptions())
	if err != nil {
		return nil, res, err
	}
	ts.Forget(dom)
	if err := dst.H.SetParentTool(dst.Builder.Dom(), newDom, dst.Dom); err != nil {
		return nil, res, fmt.Errorf("toolstack: hand-off of migrated %q: %w", g.Cfg.Name, err)
	}
	rec, err := dst.Adopt(p, newDom, g.Cfg)
	if err != nil {
		return nil, res, fmt.Errorf("toolstack: adopt of migrated %q: %w", g.Cfg.Name, err)
	}
	return rec, res, nil
}
