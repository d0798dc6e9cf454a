// Package builder implements the Xoar Builder: the one component that keeps
// domain-construction privileges after boot (§5.4). Everything else asks it.
//
// The Builder is deliberately tiny — the paper's nanOS image is ~8K lines of
// source (Table 6.1) — because it is the whole steady-state TCB: it is the
// only domain holding both HyperMapForeign and HyperDomctlPriv, the pair the
// security analyzer treats as "can touch anything" (§6.2). Its job splits in
// two:
//
//   - VM construction. Requests arrive over a queue and are served one at a
//     time, so every build is audited against the requester's standing
//     before any privileged hypercall is issued. Images come from a
//     known-good catalog; untrusted kernels are never mapped by the Builder
//     itself but handed to a bootloader domain that loads them from inside
//     (§5.5). A toolstack may request plain guests and a QemuVM for guests
//     it parents — nothing else.
//
//   - Shard administration. Driver shards are delegated to the Builder at
//     boot (boot.go), which hosts the microreboot engine: it snapshots
//     replacements, rolls shards back to their boot-time image, and rebuilds
//     them from the recorded request when rollback is impossible (§3.3).
package builder

import (
	"fmt"
	"strconv"

	"xoar/internal/hv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/telemetry"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// Build CPU cost: hypercall work plus scrubbing the new domain's pages,
// charged to the Builder's own vCPU.
const (
	buildCompute = 2 * sim.Millisecond
	scrubPerMB   = 4 * sim.Microsecond
)

// Request describes one domain the Builder should construct.
type Request struct {
	// Requester is the domain (or boot-time principal) asking for the
	// build. All privilege checks are made against it, and it becomes the
	// new domain's parent toolstack (§5.6).
	Requester xtypes.DomID
	// Name of the new domain.
	Name string
	// Image names an entry in the known-good catalog. Ignored when
	// CustomKernel or QemuFor is set.
	Image string
	// CustomKernel requests a guest-supplied kernel. The Builder refuses to
	// map untrusted code and instead boots the bootloader image, which
	// loads the kernel from inside the new domain (§5.5).
	CustomKernel bool
	// MemMB overrides the image's default reservation (0 = default).
	MemMB int
	// VCPUs for the new domain (0 = 1).
	VCPUs int
	// Shard marks the domain as a Xoar shard. Only authorized requesters
	// may ask for shards.
	Shard bool
	// QemuFor requests a device-model stub domain for the named HVM guest.
	// The Builder fixes the image and privilege block itself and checks the
	// requester parents the guest. DomID 0 never identifies a qemu target.
	QemuFor xtypes.DomID
	// Privileges to assign to the new domain. Only authorized requesters
	// may ask for a non-empty assignment.
	Privileges hv.Assignment
}

// qemu reports whether the request is a device-model build. The Request
// zero value leaves QemuFor at 0 (= the bootstrapper / Dom0), which can
// never be an HVM guest, so 0 means "unset".
func (r Request) qemu() bool {
	return r.QemuFor != 0 && r.QemuFor != xtypes.DomIDNone
}

// Builder is the domain-building service. Create with New, then run Serve
// in its own process; Submit requests from any other process.
type Builder struct {
	// XenStoreDom, when set, receives a pre-created grant entry on every
	// new domain — the extra VM-build step that lets XenStore-Logic run
	// without foreign-mapping privilege (§5.4). DomIDNone disables it.
	XenStoreDom xtypes.DomID

	// Builds counts completed constructions; Denied counts refused
	// requests; Rebuilds counts shard replacements by the restart engine.
	Builds   int
	Denied   int
	Rebuilds int

	// Monolithic marks the stock-Xen Dom0 profile: the Builder identity is
	// Dom0 itself and there is no microreboot machinery, so Rollback and
	// Rebuild refuse with xtypes.ErrNoMicroreboot (§3.3 is Xoar-only).
	Monolithic bool

	hv    *hv.Hypervisor
	dom   xtypes.DomID
	cat   *osimage.Catalog
	xs    *xenstore.Conn
	queue *sim.Chan[*job]
	eng   *snapshot.Engine

	// tel is the telemetry registry (nil = disabled); m holds pre-resolved
	// metric handles so the hot path pays one nil check per observation.
	tel *telemetry.Registry
	m   builderMetrics

	// authorized lists principals allowed privileged builds (the
	// Bootstrapper during boot; the Builder itself afterwards).
	authorized map[xtypes.DomID]bool
	// records remembers the resolved request of each shard build Rebuild
	// can replay, so a failed shard can be reconstructed after its domain
	// is gone. Guests and device-model stubs are not recorded: a guest
	// belongs to its toolstack, and a stub dies with its HVM guest.
	records map[xtypes.DomID]Request
}

// builderMetrics are the Builder's pre-resolved telemetry handles; all nil
// when telemetry is disabled (every method no-ops on nil).
type builderMetrics struct {
	queueDepth *telemetry.Histogram // depth seen by each job at enqueue
	queueWait  *telemetry.Histogram // ms a job waited before service
	buildMS    *telemetry.Histogram // ms from service start to the job's last boot
	batchSize  *telemetry.Histogram // requests per job
	builds     *telemetry.Counter
	denied     *telemetry.Counter
}

// job is one queue entry: the requests of one Submit, SubmitAll or Rebuild
// call, served as a unit. A single request's slot lives in one, so a
// single build allocates no slice.
type job struct {
	slots []slot
	one   [1]slot
	done  *sim.Gate // opened once every slot carries its outcome
	enq   sim.Time  // when the job was enqueued
}

// slot is one request of a job and its outcome: the new domain, or the
// error (dom is then DomIDNone).
type slot struct {
	req Request
	dom xtypes.DomID
	err error
}

// New returns a Builder bound to the given domain. xs must be a privileged
// XenStore connection: the Builder registers every newcomer in the store.
func New(h *hv.Hypervisor, dom xtypes.DomID, cat *osimage.Catalog, xs *xenstore.Conn) *Builder {
	return &Builder{
		XenStoreDom: xtypes.DomIDNone,
		hv:          h,
		dom:         dom,
		cat:         cat,
		xs:          xs,
		queue:       sim.NewChan[*job](h.Env),
		eng:         snapshot.NewEngine(h, dom),
		authorized:  make(map[xtypes.DomID]bool),
		records:     make(map[xtypes.DomID]Request),
	}
}

// Dom returns the domain the Builder runs in.
func (b *Builder) Dom() xtypes.DomID { return b.dom }

// SetMetrics attaches a telemetry registry to the Builder and its restart
// engine. Safe with nil (telemetry disabled); call before Serve starts.
func (b *Builder) SetMetrics(reg *telemetry.Registry) {
	b.tel = reg
	b.eng.SetMetrics(reg)
	b.m = builderMetrics{
		queueDepth: reg.Histogram("builder_queue_depth", telemetry.DepthBuckets),
		queueWait:  reg.Histogram("builder_queue_wait_ms", telemetry.LatencyMSBuckets),
		buildMS:    reg.Histogram("builder_build_latency_ms", telemetry.LatencyMSBuckets),
		batchSize:  reg.Histogram("builder_batch_size", telemetry.DepthBuckets),
		builds:     reg.Counter("builder_builds_total"),
		denied:     reg.Counter("builder_denied_total"),
	}
}

// Authorize allows dom to request privileged builds (shards, device
// passthrough, hypercall whitelists).
func (b *Builder) Authorize(dom xtypes.DomID) { b.authorized[dom] = true }

// Revoke withdraws a principal's privileged-build standing — how the
// Bootstrapper is dropped from the trust set once boot completes (§5.2).
func (b *Builder) Revoke(dom xtypes.DomID) { delete(b.authorized, dom) }

// Serve processes jobs one at a time. Serialization is part of the
// security argument — every privileged hypercall the Builder issues is
// attributable to exactly one validated request — and part of the paper's
// boot-time story: domains built through the Builder come up one after
// another, which is why Xoar's ping-ready speedup (1.15x, through the
// Builder) trails its console speedup (1.5x, direct parallel boot) in
// Table 6.2.
func (b *Builder) Serve(p *sim.Proc) {
	for {
		j, ok := b.queue.Recv(p)
		if !ok {
			return
		}
		b.m.queueWait.Observe(p.Now().Sub(j.enq).Milliseconds())
		b.buildAll(p, j.slots)
		j.done.Open()
	}
}

// buildAll serves one job, the only path to construct.
//
// Every request is resolved before the first page is scrubbed. A malformed
// or unprivileged request rejects the whole job — its slot carries the
// resolve error, every other slot xtypes.ErrBatchAborted — and no build
// compute is consumed, so callers never receive a half-built fleet because
// request k was misauthorized.
//
// Construction then runs on the Builder's vCPU, one domain at a time, so
// every privileged hypercall stays attributable to one validated request.
// The Builder supervises each newcomer's boot, strictly one after another
// in slot order (Table 6.2): a boot starts once its own construction and
// the previous boot have both finished, so scrubbing domain i+1 overlaps
// the boot of domain i, but boots never overlap each other. Boot ends are
// computed rather than slept one by one; the serve loop sleeps once, to the
// last boot end, so the job holds the Builder until its last domain is up
// and concurrent callers keep their FIFO order.
func (b *Builder) buildAll(p *sim.Proc, slots []slot) {
	invalid := false
	for i := range slots {
		s := &slots[i]
		s.dom = xtypes.DomIDNone
		if s.req, s.err = b.resolve(s.req); s.err != nil {
			invalid = true
			b.Denied++
			b.m.denied.Inc()
		}
	}
	if invalid {
		for i := range slots {
			if slots[i].err == nil {
				slots[i].err = fmt.Errorf("builder: request %q: %w", slots[i].req.Name, xtypes.ErrBatchAborted)
			}
		}
		return
	}

	start := p.Now()
	b.m.batchSize.Observe(float64(len(slots)))
	// Span names are built only when a tracer records them: this path
	// carries every guest build.
	var sp *telemetry.Span
	if tr := b.tel.Tracer(); tr != nil {
		sp = tr.Start("builder", fmt.Sprintf("build-batch[%d]", len(slots)), start)
	}
	lastBoot := start
	for i := range slots {
		s := &slots[i]
		cstart := p.Now()
		var boot sim.Duration
		s.dom, boot, s.err = b.construct(p, s.req)
		if sp != nil {
			sp.StartChild("construct:"+s.req.Name, cstart).EndAt(p.Now())
		}
		if s.err != nil {
			continue
		}
		bootStart := max(p.Now(), lastBoot)
		lastBoot = bootStart.Add(boot)
		if sp != nil {
			sp.StartChild("boot:"+s.req.Name, bootStart).EndAt(lastBoot)
		}
	}
	if wait := lastBoot.Sub(p.Now()); wait > 0 {
		p.Sleep(wait)
	}
	sp.EndAt(p.Now())
	b.m.buildMS.Observe(p.Now().Sub(start).Milliseconds())
}

// Submit enqueues a request and waits until the new domain is built and
// booted. Safe to call from any process except the Builder's own serve
// loop, which would deadlock.
func (b *Builder) Submit(p *sim.Proc, req Request) (xtypes.DomID, error) {
	j := &job{}
	j.one[0].req = req
	j.slots = j.one[:]
	b.await(p, j)
	return j.one[0].dom, j.one[0].err
}

// SubmitAll enqueues a batch of requests as one unit of Builder work and
// waits until every domain is built and booted (or the batch is rejected).
// Results are index-aligned with reqs: doms[i] is the new domain for
// reqs[i] (DomIDNone on failure) and errs[i] its error (nil on success).
//
// The batch is validated in full before any build compute is spent; one
// invalid request fails the whole batch, with the remaining slots carrying
// xtypes.ErrBatchAborted. Scrubbing of domain i+1 overlaps the supervised
// boot of domain i (see buildAll), so the batch makespan is strictly below
// the serial Submit sum while boots — and the FIFO order seen by
// concurrent Submit callers — stay serialized.
func (b *Builder) SubmitAll(p *sim.Proc, reqs []Request) ([]xtypes.DomID, []error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	j := &job{slots: make([]slot, len(reqs))}
	for i, req := range reqs {
		j.slots[i].req = req
	}
	b.await(p, j)
	doms := make([]xtypes.DomID, len(reqs))
	errs := make([]error, len(reqs))
	for i, s := range j.slots {
		doms[i], errs[i] = s.dom, s.err
	}
	return doms, errs
}

// await queues j behind every job already submitted and blocks p until the
// serve loop has filled in its slots.
func (b *Builder) await(p *sim.Proc, j *job) {
	j.done = sim.NewGate(b.hv.Env)
	j.enq = b.hv.Env.Now()
	b.queue.Send(j)
	b.m.queueDepth.Observe(float64(b.queue.Len()))
	j.done.Wait(p)
}

// trusted reports whether dom may request privileged builds: the Builder
// itself (rebuilding its wards) or a principal on the authorized list.
func (b *Builder) trusted(dom xtypes.DomID) bool {
	return dom == b.dom || b.authorized[dom]
}

// resolve validates req against the requester's standing and pins down the
// image and privilege block to apply. It returns the (possibly rewritten)
// request; every image it names is in the catalog.
func (b *Builder) resolve(req Request) (Request, error) {
	// The requester must be a live domain, or a principal on the
	// authorized list (the Bootstrapper exists only during boot).
	if !b.trusted(req.Requester) {
		if _, err := b.hv.Domain(req.Requester); err != nil {
			return req, fmt.Errorf("builder: requester %v unknown: %w", req.Requester, xtypes.ErrPerm)
		}
	}

	if req.qemu() {
		target, err := b.hv.Domain(req.QemuFor)
		if err != nil {
			return req, fmt.Errorf("builder: qemu target %v: %w", req.QemuFor, err)
		}
		if !b.trusted(req.Requester) && target.ParentTool() != req.Requester {
			return req, fmt.Errorf("builder: qemu for foreign guest %v requested by %v: %w",
				req.QemuFor, req.Requester, xtypes.ErrPerm)
		}
		// Device-model builds carry a fixed image and privilege block: a
		// stub-domain QEMU with foreign-map rights over exactly its guest
		// (§5.6). The requester has no say in either.
		img, err := b.cat.Lookup(osimage.ImgQemu)
		if err != nil {
			return req, err
		}
		req.Image = img.Name
		req.CustomKernel = false
		req.Shard = true
		req.Privileges = hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperMapForeign}}
		return req, nil
	}

	// Shards and privilege assignments are reserved for authorized
	// principals; a toolstack may only ask for plain guests.
	if (req.Shard || !assignmentEmpty(req.Privileges)) && !b.trusted(req.Requester) {
		return req, fmt.Errorf("builder: privileged build %q by %v: %w",
			req.Name, req.Requester, xtypes.ErrPerm)
	}

	if req.CustomKernel {
		img, err := b.cat.Lookup(osimage.ImgBootloader)
		if err != nil {
			return req, err
		}
		if req.MemMB <= 0 {
			// The bootloader's own footprint is not the guest's: default
			// to the standard guest reservation.
			if gi, gerr := b.cat.Lookup(osimage.ImgGuestPV); gerr == nil {
				req.MemMB = gi.MemMB
			}
		}
		req.Image = img.Name
		return req, nil
	}

	if _, err := b.cat.Lookup(req.Image); err != nil {
		return req, fmt.Errorf("builder: image %q: %w", req.Image, err)
	}
	return req, nil
}

// construct spends the build compute and creates one domain from a
// resolved request, returning its ID and the boot time to supervise.
func (b *Builder) construct(p *sim.Proc, req Request) (xtypes.DomID, sim.Duration, error) {
	img, err := b.cat.Lookup(req.Image)
	if err != nil {
		return xtypes.DomIDNone, 0, fmt.Errorf("builder: image %q: %w", req.Image, err)
	}
	memMB := req.MemMB
	if memMB <= 0 {
		memMB = img.MemMB
	}
	// Page-table setup and scrubbing run on the Builder's own vCPU.
	b.hv.Compute(p, b.dom, buildCompute+sim.Duration(memMB)*scrubPerMB)

	d, err := b.hv.CreateDomain(b.dom, hv.DomainConfig{
		Name: req.Name, MemMB: memMB, VCPUs: req.VCPUs,
		Shard: req.Shard, OSImage: img.Name,
	})
	if err != nil {
		return xtypes.DomIDNone, 0, fmt.Errorf("builder: create %q: %w", req.Name, err)
	}
	if err := b.setup(d.ID, req); err != nil {
		// Abort cleanly: a half-privileged domain must not survive.
		b.hv.DestroyDomain(b.dom, d.ID, "builder: aborted build")
		return xtypes.DomIDNone, 0, err
	}
	b.Builds++
	b.m.builds.Inc()
	if req.Shard && !req.qemu() {
		b.records[d.ID] = req
	}
	return d.ID, img.BootTime(), nil
}

// setup applies privileges, registers the newcomer and releases it.
func (b *Builder) setup(id xtypes.DomID, req Request) error {
	if !assignmentEmpty(req.Privileges) {
		if err := b.hv.AssignPrivileges(b.dom, id, req.Privileges); err != nil {
			return fmt.Errorf("builder: privileges for %q: %w", req.Name, err)
		}
	}
	if req.qemu() {
		if err := b.hv.SetPrivilegedFor(b.dom, id, req.QemuFor); err != nil {
			return err
		}
	}
	if err := b.register(id, req); err != nil {
		return err
	}
	if b.XenStoreDom != xtypes.DomIDNone {
		// The extra VM-build step that lets XenStore run deprivileged: the
		// Builder pre-creates the grant entry for the store ring so the
		// Logic never needs to map foreign memory itself (§5.4).
		if _, err := b.hv.GrantFor(b.dom, id, b.XenStoreDom, 0, false); err != nil {
			return err
		}
	}
	if err := b.hv.Unpause(b.dom, id); err != nil {
		return err
	}
	// Handoff comes last: once the requester is recorded as parent
	// toolstack, VM-management rights over the newcomer are its — the
	// Builder keeps nothing it does not need (§5.6).
	return b.hv.SetParentTool(b.dom, id, req.Requester)
}

// register creates the domain's XenStore tree and hands it over: the domain
// owns its tree, the world may read it (device discovery).
func (b *Builder) register(id xtypes.DomID, req Request) error {
	base := "/local/domain/" + strconv.FormatUint(uint64(id), 10)
	if err := b.xs.Mkdir(xenstore.TxNone, base); err != nil {
		return err
	}
	if err := b.xs.Write(xenstore.TxNone, base+"/name", req.Name); err != nil {
		return err
	}
	return b.xs.SetPerms(base, xenstore.Perms{Owner: id, Read: []xtypes.DomID{xtypes.DomIDNone}})
}

func assignmentEmpty(a hv.Assignment) bool {
	return !a.ControlAll && len(a.PCIDevices) == 0 && len(a.Hypercalls) == 0 &&
		len(a.DelegateTo) == 0 && len(a.IOPorts) == 0
}
