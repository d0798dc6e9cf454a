// Package consolemgr implements the Console Manager shard (§5.5): it hosts
// the user-space console daemon (xenconsoled), exposing a virtual serial
// console to every guest and multiplexing output onto the physical serial
// port that Xen retains.
//
// In Xoar the Console Manager boots before any other Linux VM, skips PCI
// enumeration entirely (the §5.5 boot-path modification, reflected in its OS
// image's boot time), and runs deprivileged: its console rings are shared
// via Builder-created grants rather than Dom0-style foreign mapping (§5.6).
package consolemgr

import (
	"fmt"

	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"

	hwpkg "xoar/internal/hw"
)

// perLineCPU is daemon CPU per console line (copy out of the ring, log).
const perLineCPU = 5 * sim.Microsecond

// vconsole is one guest's virtual console.
type vconsole struct {
	guest  xtypes.DomID
	lines  *sim.Chan[string]
	buffer []string
	pump   *sim.Proc
}

// Manager is the Console Manager component.
type Manager struct {
	H      *hv.Hypervisor
	Dom    xtypes.DomID
	Serial *hwpkg.Serial
	XS     *xenstore.Conn

	consoles map[xtypes.DomID]*vconsole
	serving  *sim.Gate

	LinesHandled int64
}

// New constructs the Console Manager in domain dom.
func New(h *hv.Hypervisor, dom xtypes.DomID, serial *hwpkg.Serial, xs *xenstore.Conn) *Manager {
	return &Manager{
		H:        h,
		Dom:      dom,
		Serial:   serial,
		XS:       xs,
		consoles: make(map[xtypes.DomID]*vconsole),
		serving:  sim.NewGate(h.Env),
	}
}

// Start binds the console VIRQ and opens for service. The hypervisor must
// have routed VIRQConsole and the console I/O ports to this domain (§5.8).
func (m *Manager) Start(p *sim.Proc) error {
	if !m.H.HasIOPorts(m.Dom, "console") {
		return fmt.Errorf("consolemgr: no console I/O-port access: %w", xtypes.ErrPerm)
	}
	if _, err := m.H.Evtchn.BindVIRQ(m.Dom, xtypes.VIRQConsole); err != nil {
		return err
	}
	m.XS.Write(xenstore.TxNone, fmt.Sprintf("/local/domain/%d/console-daemon", m.Dom), "running")
	m.serving.Open()
	return nil
}

// Serving reports whether the daemon is up.
func (m *Manager) Serving() bool { return !m.serving.Closed() }

// CreateConsole provisions a virtual console for guest and starts its pump.
func (m *Manager) CreateConsole(guest xtypes.DomID) {
	if _, ok := m.consoles[guest]; ok {
		return
	}
	vc := &vconsole{guest: guest, lines: sim.NewChan[string](m.H.Env)}
	m.consoles[guest] = vc
	vc.pump = m.H.Env.Spawn(fmt.Sprintf("console-%v", guest), func(p *sim.Proc) {
		for {
			line, ok := vc.lines.Recv(p)
			if !ok {
				return
			}
			m.H.Compute(p, m.Dom, perLineCPU)
			vc.buffer = append(vc.buffer, line)
			m.Serial.WriteLine(fmt.Sprintf("[%v] %s", guest, line))
			m.LinesHandled++
		}
	})
}

// RemoveConsole tears down a guest's console.
func (m *Manager) RemoveConsole(guest xtypes.DomID) {
	vc, ok := m.consoles[guest]
	if !ok {
		return
	}
	vc.lines.Close()
	delete(m.consoles, guest)
}

// GuestWrite is the frontend path: a guest emits a console line. It fails
// while the manager is down or the guest has no console.
func (m *Manager) GuestWrite(guest xtypes.DomID, line string) error {
	if m.serving.Closed() {
		return fmt.Errorf("consolemgr: not serving: %w", xtypes.ErrShutdown)
	}
	vc, ok := m.consoles[guest]
	if !ok {
		return fmt.Errorf("consolemgr: no console for %v: %w", guest, xtypes.ErrNotFound)
	}
	vc.lines.Send(line)
	return nil
}

// Buffer returns the captured output of a guest's console.
func (m *Manager) Buffer(guest xtypes.DomID) []string {
	vc, ok := m.consoles[guest]
	if !ok {
		return nil
	}
	out := make([]string, len(vc.buffer))
	copy(out, vc.buffer)
	return out
}

// Consoles reports the number of live virtual consoles.
func (m *Manager) Consoles() int { return len(m.consoles) }
