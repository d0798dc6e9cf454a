// Package blkdrv implements the paravirtualized split block driver (§4.5.1,
// §5.4): BlkBack, a driver domain owning a physical disk controller and
// exposing virtual block devices (vbds) to guests, and BlkFront, the
// guest-side disk. The connection handshake, the ring-page mappings and the
// XenStore states are xenbus's; a vbd's queue advertises one ring page.
//
// The request path batches the way real blkback does: the worker drains
// whole bursts of descriptors per wakeup under one batch charge plus a
// per-descriptor increment, and the rings suppress notifies the peer did
// not arm. A vbd may carry N rings with segments striped across them
// (multi-queue, as in blk-mq over xen-blkfront) for NVMe-class devices.
//
// BlkBack also hosts the lightweight proxy daemon of §5.4: after the split
// from the Toolstack, guest disk images live with BlkBack, so Toolstack
// requests to create, delete or mount images are proxied to it rather than
// executed on local files.
package blkdrv

import (
	"fmt"

	"xoar/internal/hv"
	"xoar/internal/ring"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/telemetry"
	"xoar/internal/xenbus"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"

	hwpkg "xoar/internal/hw"
)

// Op is a block operation type.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// Req is one block request descriptor. Large transfers are segmented by the
// frontend into ring-sized requests, as real blkfront does.
type Req struct {
	Op         Op
	Bytes      int
	Sequential bool
	ID         int64
}

// Resp completes a request.
type Resp struct {
	ID  int64
	Err bool
}

// SegmentBytes is the largest single request (11 pages ≈ Xen's 44KB rounded
// to a power of two for modelling).
const SegmentBytes = 64 * 1024

// perBatchCPU is the fixed cost of one worker wakeup (event upcall,
// scheduling); perDescCPU is the per-descriptor cost of mapping segments
// and queueing. At batch size 1 they sum to the historical 20µs per-request
// charge, so unbatched traffic is priced exactly as before.
const (
	perBatchCPU = 2 * sim.Microsecond
	perDescCPU  = 18 * sim.Microsecond
)

// Image is a guest disk image held by BlkBack's proxy daemon.
type Image struct {
	Name   string
	SizeMB int
	InUse  bool
}

// vbdQueue is one request ring of a vbd.
type vbdQueue struct {
	id   int
	ring *ring.Ring[Req, Resp]
	proc *sim.Proc
}

// vbdClass lays each vbd queue's ring page out from pfn 12 of the guest's
// space, above the vif rings' pfns 10 and 11.
var vbdClass = xenbus.Class{Name: "vbd", Pages: 1, FirstPFN: 12}

// vbd is one guest's virtual block device.
type vbd struct {
	xenbus.Device
	queues []*vbdQueue
	image  string
}

// Backend is BlkBack: one per physical disk controller.
type Backend struct {
	xenbus.Backend
	Disk *hwpkg.Disk

	vbds   map[xtypes.DomID]*vbd
	images map[string]*Image

	// CoLocated marks a backend sharing its domain with other busy services
	// (monolithic Dom0). Scheduling jitter between co-located services
	// breaks request merging, so a small fraction of sequential operations
	// pay a seek — the performance-isolation effect behind Figure 6.2's
	// combined net→disk result (§6.1.2).
	CoLocated bool

	CompletedReqs int64
	RestartCount  int

	// Pre-resolved telemetry handles indexed by Op; nil when disabled.
	rtt [3]*telemetry.Histogram
	// Batch-size histogram and notify split counters (DESIGN.md §8).
	batchSize             *telemetry.Histogram
	notifySentReq, supReq *telemetry.Counter
	notifySentRsp, supRsp *telemetry.Counter
}

// DataPathStats aggregates ring descriptor and notify-decision counters
// across every vbd queue. Req counts the frontends' request pushes, Resp
// the backend's completion pushes.
type DataPathStats struct {
	ReqDescs, ReqNotifies, ReqSuppressed    int64
	RespDescs, RespNotifies, RespSuppressed int64
}

// DataPathStats snapshots the aggregate ring counters.
func (b *Backend) DataPathStats() DataPathStats {
	var s DataPathStats
	for _, v := range b.vbds {
		for _, q := range v.queues {
			st := q.ring.Stats()
			s.ReqDescs += st.ReqPushed
			s.ReqNotifies += st.NotifiesToBack
			s.ReqSuppressed += st.SuppressedToBack
			s.RespDescs += st.RespPushed
			s.RespNotifies += st.NotifiesToFront
			s.RespSuppressed += st.SuppressedToFront
		}
	}
	return s
}

// SetMetrics attaches a telemetry registry (nil = disabled). The ring
// round-trip histograms measure, per request, the time from its batch being
// popped off the vbd ring to pushing its completion; the batch-size
// histogram counts descriptors per worker wakeup, and the notify counters
// split event signals sent versus suppressed per direction (DESIGN.md §8).
func (b *Backend) SetMetrics(reg *telemetry.Registry) {
	for op, name := range map[Op]string{OpRead: "read", OpWrite: "write", OpFlush: "flush"} {
		b.rtt[op] = reg.Histogram("blkback_ring_rtt_us", telemetry.LatencyUSBuckets, telemetry.L("op", name))
	}
	b.batchSize = reg.Histogram("blkback_batch_size", telemetry.DepthBuckets)
	b.notifySentReq = reg.Counter("blkback_notify_sent_total", telemetry.L("dir", "req"))
	b.supReq = reg.Counter("blkback_notify_suppressed_total", telemetry.L("dir", "req"))
	b.notifySentRsp = reg.Counter("blkback_notify_sent_total", telemetry.L("dir", "resp"))
	b.supRsp = reg.Counter("blkback_notify_suppressed_total", telemetry.L("dir", "resp"))
}

// coLocationJitter is the probability a sequential request loses its merge.
const coLocationJitter = 0.005

// NewBackend constructs BlkBack in domain dom, driving disk.
func NewBackend(h *hv.Hypervisor, dom xtypes.DomID, disk *hwpkg.Disk, xs *xenstore.Conn) *Backend {
	return &Backend{
		Backend: xenbus.NewBackend(h, dom, xs, &vbdClass),
		Disk:    disk,
		vbds:    make(map[xtypes.DomID]*vbd),
		images:  make(map[string]*Image),
	}
}

// Start initializes the disk controller and opens for service.
func (b *Backend) Start(p *sim.Proc) {
	if !b.Disk.Initialized() {
		b.Disk.Reset(p)
	}
	b.Ready()
}

// Name implements snapshot.Restartable.
func (b *Backend) Name() string { return "blkback" }

// --- image proxy daemon (§5.4) ---------------------------------------------

// CreateImage provisions a new disk image for a guest. Called by the
// Toolstack through its proxy channel.
func (b *Backend) CreateImage(name string, sizeMB int) error {
	if _, ok := b.images[name]; ok {
		return fmt.Errorf("blkback: image %q: %w", name, xtypes.ErrExists)
	}
	b.images[name] = &Image{Name: name, SizeMB: sizeMB}
	return nil
}

// DeleteImage removes an image not currently mounted.
func (b *Backend) DeleteImage(name string) error {
	img, ok := b.images[name]
	if !ok {
		return fmt.Errorf("blkback: image %q: %w", name, xtypes.ErrNotFound)
	}
	if img.InUse {
		return fmt.Errorf("blkback: image %q mounted: %w", name, xtypes.ErrInUse)
	}
	delete(b.images, name)
	return nil
}

// --- vbd lifecycle ----------------------------------------------------------

// CreateVbdQueues provisions a vbd for guest with n request rings, backed by
// the named image (the loopback mount now performed in BlkBack rather than
// Dom0, §5.4). The frontend stripes segments across the rings; each ring
// gets its own worker, so a multi-queue vbd keeps an NVMe-class device's
// queue depth fed.
func (b *Backend) CreateVbdQueues(guest xtypes.DomID, image string, n int) error {
	img, ok := b.images[image]
	if !ok {
		return fmt.Errorf("blkback: vbd for %v: image %q: %w", guest, image, xtypes.ErrNotFound)
	}
	if img.InUse {
		return fmt.Errorf("blkback: image %q: %w", image, xtypes.ErrInUse)
	}
	n = max(n, 1)
	img.InUse = true
	v := &vbd{image: image}
	b.Init(&v.Device, guest, n)
	for qi := 0; qi < n; qi++ {
		v.queues = append(v.queues, &vbdQueue{
			id:   qi,
			ring: ring.New[Req, Resp](b.H.Env, ring.DefaultSlots),
		})
	}
	b.vbds[guest] = v
	return nil
}

// RemoveVbd detaches a guest's vbd, unmaps its ring pages and releases its
// image.
func (b *Backend) RemoveVbd(guest xtypes.DomID) {
	v, ok := b.vbds[guest]
	if !ok {
		return
	}
	for _, q := range v.queues {
		if q.proc != nil {
			q.proc.Kill()
		}
		q.ring.Break()
	}
	if img, ok := b.images[v.image]; ok {
		img.InUse = false
	}
	delete(b.vbds, guest)
	v.Remove()
}

// startWorker spawns the per-queue request-service loops. Each drains its
// ring in bursts: one batch charge plus a per-descriptor increment, disk
// ops in order, and a completion pushed as each finishes so the frontend
// refills without waiting for the whole batch (suppression elides the
// notifies the frontend did not arm).
func (b *Backend) startWorker(v *vbd) {
	for _, q := range v.queues {
		q := q
		q.proc = b.H.Env.Spawn(fmt.Sprintf("blkback-%v-q%d", v.Guest, q.id), func(p *sim.Proc) {
			b.runWorker(q, p, make([]Req, ring.DefaultSlots))
		})
	}
}

// runWorker is one queue's request-service loop — the BlkBack data path.
// The descriptor buffer is allocated by startWorker once per worker
// lifetime; the loop itself must stay allocation-free.
//
//xoarlint:hot
func (b *Backend) runWorker(q *vbdQueue, p *sim.Proc, buf []Req) {
	var prev ring.Stats
	for {
		n, err := q.ring.PopRequestBatch(p, buf)
		if err != nil {
			return // broken: restart or teardown
		}
		start := p.Now()
		b.H.Compute(p, b.Dom, perBatchCPU+sim.Duration(n)*perDescCPU)
		b.batchSize.Observe(float64(n))
		for i := 0; i < n; i++ {
			req := buf[i]
			seq := req.Sequential
			if seq && b.CoLocated && b.H.Env.Rand().Float64() < coLocationJitter {
				seq = false
			}
			switch req.Op {
			case OpRead:
				b.Disk.Read(p, req.Bytes, seq)
			case OpWrite:
				b.Disk.Write(p, req.Bytes, seq)
			case OpFlush:
				b.Disk.Write(p, 0, false) // barrier: a seek-priced no-op
			}
			if q.ring.Broken() {
				return
			}
			q.ring.PushResponse(Resp{ID: req.ID})
			b.CompletedReqs++
			if int(req.Op) < len(b.rtt) {
				b.rtt[req.Op].Observe(float64(p.Now().Sub(start)) / float64(sim.Microsecond))
			}
		}
		cur := q.ring.Stats()
		b.notifySentReq.Add(cur.NotifiesToBack - prev.NotifiesToBack)
		b.supReq.Add(cur.SuppressedToBack - prev.SuppressedToBack)
		b.notifySentRsp.Add(cur.NotifiesToFront - prev.NotifiesToFront)
		b.supRsp.Add(cur.SuppressedToFront - prev.SuppressedToFront)
		prev = cur
	}
}

// Restart implements snapshot.Restartable: the microreboot recovery path.
func (b *Backend) Restart(p *sim.Proc, fast bool) {
	b.RestartCount++
	b.Gate.Reset()
	var order [8]*vbd
	for _, v := range xenbus.InGuestOrder(b.vbds, order[:0]) {
		for _, q := range v.queues {
			if q.proc != nil {
				q.proc.Kill()
				q.proc = nil
			}
			q.ring.Break()
		}
		v.Disconnect()
	}
	snapshot.Reconnect(p, fast)
	for _, v := range xenbus.InGuestOrder(b.vbds, order[:0]) {
		for _, q := range v.queues {
			q.ring.Reset()
		}
		v.Reconnect()
		b.startWorker(v)
	}
	b.Ready()
}

// --- frontend ---------------------------------------------------------------

// Frontend is BlkFront: the guest-side virtual disk.
type Frontend struct {
	H     *hv.Hypervisor
	Guest xtypes.DomID
	XS    *xenstore.Conn

	v      *vbd
	nextID int64

	BytesWritten int64
}

// NewFrontend constructs the guest-side driver.
func NewFrontend(h *hv.Hypervisor, guest xtypes.DomID, xs *xenstore.Conn) *Frontend {
	return &Frontend{H: h, Guest: guest, XS: xs}
}

// Connect performs the frontend half of the handshake against back (see
// xenbus) and starts the vbd's workers once the backend has accepted.
func (f *Frontend) Connect(p *sim.Proc, back *Backend) error {
	v, ok := back.vbds[f.Guest]
	if !ok {
		return fmt.Errorf("blkfront: backend has no vbd for %v: %w", f.Guest, xtypes.ErrNotFound)
	}
	f.v = v
	if err := v.Connect(f.XS); err != nil {
		return err
	}
	back.startWorker(v)
	return nil
}

// Connected reports whether the vbd is usable.
func (f *Frontend) Connected() bool {
	return f.v != nil && f.v.Connected && !f.v.queues[0].ring.Broken()
}

// io issues one segmented, pipelined block operation and waits for all
// completions. Bytes are split into SegmentBytes requests striped across
// the vbd's queues, each filled to its slot count (queue depth = ring
// slots × queues), which is how real blkfront achieves disk bandwidth.
func (f *Frontend) io(p *sim.Proc, op Op, bytes int, sequential bool) error {
	if f.v == nil {
		return fmt.Errorf("blkfront: not connected: %w", xtypes.ErrInvalid)
	}
	queues := f.v.queues
	remaining := bytes
	segIdx := 0
	// Per-ring in-flight counts, on the stack for up to 8 rings.
	var counts [8]int
	var inflight []int
	if len(queues) <= len(counts) {
		inflight = counts[:len(queues)]
	} else {
		inflight = make([]int, len(queues))
	}
	totalInflight := 0
	// A flush carries no payload but still issues one barrier request.
	pending := 1
	if bytes > 0 {
		pending = (bytes + SegmentBytes - 1) / SegmentBytes
	}
	for pending > 0 || totalInflight > 0 {
		if pending > 0 {
			qi := segIdx % len(queues)
			q := queues[qi]
			if !q.ring.Full() {
				seg := remaining
				if seg > SegmentBytes {
					seg = SegmentBytes
				}
				f.nextID++
				if !q.ring.TryPushRequest(Req{Op: op, Bytes: seg, Sequential: sequential, ID: f.nextID}) {
					return fmt.Errorf("blkfront: push failed: %w", xtypes.ErrShutdown)
				}
				remaining -= seg
				segIdx++
				pending--
				inflight[qi]++
				totalInflight++
				continue
			}
		}
		// Reap a completion: non-blocking scan first (multi-queue), then
		// block on the queue gating progress.
		reaped := false
		if len(queues) > 1 {
			for qi, q := range queues {
				if inflight[qi] == 0 {
					continue
				}
				if _, ok := q.ring.TryPopResponse(); ok {
					inflight[qi]--
					totalInflight--
					reaped = true
					break
				}
			}
			if reaped {
				continue
			}
		}
		blockQI := segIdx % len(queues)
		if pending == 0 || inflight[blockQI] == 0 {
			for qi := range queues {
				if inflight[qi] > 0 {
					blockQI = qi
					break
				}
			}
		}
		if _, err := queues[blockQI].ring.PopResponse(p); err != nil {
			return err
		}
		inflight[blockQI]--
		totalInflight--
	}
	if op == OpWrite {
		f.BytesWritten += int64(bytes)
	}
	return nil
}

// Write performs a write of the given size.
func (f *Frontend) Write(p *sim.Proc, bytes int, sequential bool) error {
	return f.io(p, OpWrite, bytes, sequential)
}

// WaitReconnect blocks until the backend finishes a microreboot and the vbd
// is connected again, or the timeout expires (xenbus.WaitReconnect).
func (f *Frontend) WaitReconnect(p *sim.Proc, timeout sim.Duration) bool {
	return xenbus.WaitReconnect(p, timeout, f.Connected)
}
