// Package xenbus is the split-driver core NetBack and BlkBack share, after
// Linux's xenbus_client: everything about a split device but its rings and
// device calls. The handshake follows Xen's. For each queue the frontend
// grants the ring pages, allocates an unbound event channel and publishes
// the "ref/…/port" tuple under ring-ref (queue 0) or ring-ref-N, readable
// only by the backend, queue 0 last. The backend parses each tuple
// strictly, maps the pages and binds the channel. Data then flows directly
// over the rings — XenStore and the toolstack are out of the data path,
// which is why disaggregation costs so little throughput (§6.1.4).
//
// The backend holds every ring page it mapped until the device is removed:
// a failed handshake releases them, and a microreboot keeps them, because
// the rings survive it (Figure 5.1). Bound ports stay bound on removal: hv
// has no event-channel close hypercall.
package xenbus

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// Class is a split-device class: its XenStore directory name and its ring
// layout. Each queue grants Pages ring pages, queue q's from guest pfn
// FirstPFN + q·Pages on.
type Class struct {
	Name     string
	Pages    int
	FirstPFN xtypes.PFN
}

// Backend is the xenbus half of a backend driver: the domain it runs in,
// its XenStore connection and the class of device it serves.
type Backend struct {
	H   *hv.Hypervisor
	Dom xtypes.DomID
	XS  *xenstore.Conn
	// Gate is open while the backend serves: Ready opens it, and a
	// microreboot resets it first. The data path reads it as a field.
	Gate *sim.Gate

	class *Class
	path  string // /local/domain/<Dom>/backend/<class>
	state string // path + "/state"
}

// NewBackend returns the xenbus half of a backend in domain dom serving
// devices of class.
func NewBackend(h *hv.Hypervisor, dom xtypes.DomID, xs *xenstore.Conn, class *Class) Backend {
	path := fmt.Sprintf("/local/domain/%d/backend/%s", dom, class.Name)
	return Backend{H: h, Dom: dom, XS: xs, Gate: sim.NewGate(h.Env), class: class, path: path, state: path + "/state"}
}

// DomID implements snapshot.Restartable.
func (b *Backend) DomID() xtypes.DomID { return b.Dom }

// Ready switches the backend's own state to connected and opens it for
// service, when it starts and again when a microreboot completes.
func (b *Backend) Ready() {
	b.XS.Write(b.state, "connected")
	b.Gate.Open()
}

// Device is one guest's split device, shared by its backend and frontend
// as the ring pages are. A driver embeds it in its device record.
type Device struct {
	// Connected is true while the rings carry traffic. The data path reads
	// it as a field, so the check adds no call to a hot root.
	Connected bool
	Guest     xtypes.DomID

	back      *Backend
	queues    int
	backPath  string // /local/domain/<back>/backend/<class>/<guest>
	backState string // backPath + "/state", built once for every microreboot
	frontPath string // /local/domain/<guest>/device/<class>/0
	maps      []*hv.GrantMapping
}

// Init makes d guest's device with n queues and switches its backend state
// to init.
func (b *Backend) Init(d *Device, guest xtypes.DomID, n int) {
	backPath := fmt.Sprintf("%s/%d", b.path, guest)
	*d = Device{
		Guest:     guest,
		back:      b,
		queues:    n,
		backPath:  backPath,
		backState: backPath + "/state",
		frontPath: fmt.Sprintf("/local/domain/%d/device/%s/0", guest, b.class.Name),
	}
	b.XS.Write(d.backState, "init")
}

// RingRefPath is the XenStore key queue q advertises its ring under. Queue 0
// keeps the legacy single-queue key; queue q > 0 uses ring-ref-q, like
// xen-netback's queue-N directories.
func (d *Device) RingRefPath(q int) string {
	if q == 0 {
		return d.frontPath + "/ring-ref"
	}
	return d.frontPath + "/ring-ref-" + strconv.Itoa(q)
}

// Connect runs the whole handshake for the guest, whose XenStore connection
// is xs: Advertise, the backend's Accept, then the frontend's switch to
// connected. The driver starts its ring workers once it returns nil.
func (d *Device) Connect(xs *xenstore.Conn) error {
	if err := d.Advertise(xs); err != nil {
		return err
	}
	if err := d.Accept(); err != nil {
		return err
	}
	xs.Write(d.frontPath+"/state", "connected")
	return nil
}

// Advertise is the frontend half of the handshake, run as the guest over xs:
// grant each queue's ring pages and allocate its port, publish the tuples,
// and switch the frontend's state to initialised.
func (d *Device) Advertise(xs *xenstore.Conn) error {
	h, back, class := d.back.H, d.back.Dom, d.back.class
	advs := make([]string, d.queues)
	for q := range advs {
		adv := make([]byte, 0, 64)
		for i := 0; i < class.Pages; i++ {
			ref, err := h.Grant(d.Guest, back, class.FirstPFN+xtypes.PFN(q*class.Pages+i), false)
			if err != nil {
				return err
			}
			adv = append(strconv.AppendUint(adv, uint64(ref), 10), '/')
		}
		port, err := h.EvtchnAllocUnbound(d.Guest, back)
		if err != nil {
			return err
		}
		advs[q] = string(strconv.AppendUint(adv, uint64(port), 10))
	}
	for q := len(advs) - 1; q >= 0; q-- {
		path := d.RingRefPath(q)
		if err := xs.Write(path, advs[q]); err != nil {
			return err
		}
		if err := xs.SetPerms(path, xenstore.Perms{Owner: d.Guest, Read: []xtypes.DomID{back}}); err != nil {
			return err
		}
	}
	xs.Write(d.frontPath+"/state", "initialised")
	return nil
}

// Accept is the backend half of the handshake: map each queue's ring pages
// and bind its port, then Reconnect. An advertisement that is not exactly
// Pages grant refs and a port fails with ErrInvalid. On any failure every
// page d holds is unmapped first.
func (d *Device) Accept() error {
	refs := make([]xtypes.GrantRef, d.back.class.Pages)
	for q := 0; q < d.queues; q++ {
		if err := d.acceptQueue(q, refs); err != nil {
			d.release()
			return err
		}
	}
	d.Reconnect()
	return nil
}

func (d *Device) acceptQueue(q int, refs []xtypes.GrantRef) error {
	b := d.back
	adv, err := b.XS.Read(d.RingRefPath(q))
	if err != nil {
		return err
	}
	port, ok := parseRingRef(adv, refs)
	if !ok {
		return fmt.Errorf("xenbus: bad %s ring-ref %q: %w", b.class.Name, adv, xtypes.ErrInvalid)
	}
	// The IVC policy bites here if the guest was never linked to the shard.
	for _, ref := range refs {
		m, err := b.H.MapGrant(b.Dom, d.Guest, ref, true)
		if err != nil {
			return err
		}
		d.maps = append(d.maps, m)
	}
	_, err = b.H.EvtchnBind(b.Dom, d.Guest, port)
	return err
}

// parseRingRef parses a tuple of len(refs) grant refs and a port: unsigned
// decimals separated by single slashes, with nothing after.
func parseRingRef(adv string, refs []xtypes.GrantRef) (xtypes.Port, bool) {
	for i := range refs {
		field, rest, ok := strings.Cut(adv, "/")
		n, err := strconv.ParseUint(field, 10, 32)
		if !ok || err != nil {
			return 0, false
		}
		refs[i], adv = xtypes.GrantRef(n), rest
	}
	n, err := strconv.ParseUint(adv, 10, 32)
	return xtypes.Port(n), err == nil
}

func (d *Device) release() {
	for _, m := range d.maps {
		m.Unmap()
	}
	d.maps = nil
}

// Disconnect marks d's rings down for a backend microreboot and switches its
// backend state to init. The ring pages stay mapped: the rings survive.
func (d *Device) Disconnect() {
	d.Connected = false
	d.back.XS.Write(d.backState, "init")
}

// Reconnect marks d's rings live and switches its backend state to connected.
func (d *Device) Reconnect() {
	d.Connected = true
	d.back.XS.Write(d.backState, "connected")
}

// Remove unmaps every ring page d's backend holds, marks d down and deletes
// its backend directory.
func (d *Device) Remove() {
	d.release()
	d.Connected = false
	d.back.XS.Rm(d.backPath)
}

// InGuestOrder appends the devices of m, a backend's devices by guest, to
// buf in DomID order and returns the extended slice. A microreboot kills and
// respawns each device's processes in this order instead of the map's,
// which Go randomizes per range, so the processes' IDs and the trace of a
// restart are the same on every run. It sorts the keys on its own stack, so
// with buf on the caller's stack it allocates nothing for up to 8 devices.
func InGuestOrder[D any](m map[xtypes.DomID]D, buf []D) []D {
	var keys [8]xtypes.DomID
	guests := keys[:0]
	for g := range m {
		guests = append(guests, g)
	}
	slices.Sort(guests)
	for _, g := range guests {
		buf = append(buf, m[g])
	}
	return buf
}

// WaitReconnect blocks until connected reports true or timeout passes,
// checking every 5ms. Frontends call it after a ring error: virtual machine
// protocols are designed to renegotiate (§3.3), which is what makes driver
// VMs the ideal reboot container. The poll stands in for a XenStore watch
// on the backend's state.
func WaitReconnect(p *sim.Proc, timeout sim.Duration, connected func() bool) bool {
	deadline := p.Now().Add(timeout)
	for p.Now() < deadline {
		if connected() {
			return true
		}
		p.Sleep(5 * sim.Millisecond)
	}
	return connected()
}
