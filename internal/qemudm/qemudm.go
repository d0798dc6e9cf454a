// Package qemudm implements the QemuVM shard (§4.5.2, Table 5.1): a per-guest
// device-emulation stub domain. Unmodified (HVM) guests expect emulated
// platform devices — BIOS, IDE disk, e1000-style NIC — so each HVM guest gets
// a dedicated QemuVM that performs the emulation and forwards the resulting
// I/O through its own paravirtual frontends to the driver domains.
//
// The QemuVM holds the privileged-for flag over exactly its guest (§5.6): it
// may map that guest's memory to emulate DMA, and nothing else. This is the
// containment boundary behind the §6.2.1 result that all device-emulation
// attacks collapse to the privileges of one guest's QemuVM.
package qemudm

// The QemuVM embeds the *frontend* halves of netdrv and blkdrv — the client
// side of the split drivers, the same code any guest kernel links in — to
// forward emulated I/O to the driver domains. No backend state is shared;
// the frontends talk to their backends over hv-audited rings like every
// other client, so the two imports are suppressed rather than the layering
// rule relaxed.
import (
	"fmt"

	//xoarlint:allow(layering) frontend half only; traffic rides the guest's hv-audited rings
	"xoar/internal/blkdrv"
	"xoar/internal/hv"
	//xoarlint:allow(layering) frontend half only; traffic rides the guest's hv-audited rings
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Emulation overheads: device emulation traps every I/O access, decodes it,
// and re-issues it — an order of magnitude more CPU per operation than the
// paravirtual path (§2.2.1 notes emulation's complexity; its slowness is
// why PV drivers exist).
const (
	perEmulOpCPU   = 180 * sim.Microsecond
	perEmulPageCPU = 3 * sim.Microsecond // shadow copy per 4K page of payload
)

// QemuVM is one guest's device-emulation domain.
type QemuVM struct {
	H     *hv.Hypervisor
	Dom   xtypes.DomID // the stub domain
	Guest xtypes.DomID // the single guest it emulates for

	// Blk is the QemuVM's own PV block frontend toward BlkBack; emulated
	// guest disk I/O funnels through it.
	Blk *blkdrv.Frontend
}

// New constructs the device model for guest running in stub domain dom.
// The caller (Builder) must have set the privileged-for flag beforehand.
func New(h *hv.Hypervisor, dom, guest xtypes.DomID) *QemuVM {
	return &QemuVM{H: h, Dom: dom, Guest: guest}
}

// emulate charges the emulation cost for an operation with a payload, and
// performs the DMA into guest memory through the privileged-for mapping.
// The MapForeign call is the real privilege check: a QemuVM whose flag was
// never set — or one trying to reach a different guest — fails here.
func (q *QemuVM) emulate(p *sim.Proc, target xtypes.DomID, bytes int) error {
	pages := (bytes + xtypes.PageSize - 1) / xtypes.PageSize
	q.H.Compute(p, q.Dom, perEmulOpCPU+sim.Duration(pages)*perEmulPageCPU)
	if err := q.H.MapForeign(q.Dom, target, 0); err != nil {
		return fmt.Errorf("qemudm: dma map: %w", err)
	}
	q.H.UnmapForeign(q.Dom, target)
	return nil
}

// DiskWrite emulates an IDE write of the given size and forwards it through
// the PV block frontend.
func (q *QemuVM) DiskWrite(p *sim.Proc, bytes int, sequential bool) error {
	if err := q.emulate(p, q.Guest, bytes); err != nil {
		return err
	}
	if q.Blk == nil {
		return fmt.Errorf("qemudm: no block path: %w", xtypes.ErrInvalid)
	}
	return q.Blk.Write(p, bytes, sequential)
}
