package consolemgr

import (
	"errors"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

func setup(t *testing.T, grantPorts bool) (*sim.Env, *hv.Hypervisor, *Manager, *hv.Domain) {
	t.Helper()
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	cm, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "console", MemMB: 128, Shard: true})
	h.Unpause(hv.SystemCaller, cm.ID)
	guest, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "guest", MemMB: 64})
	h.Unpause(hv.SystemCaller, guest.ID)
	if grantPorts {
		if err := h.GrantIOPorts(hv.SystemCaller, cm.ID, "console"); err != nil {
			t.Fatal(err)
		}
	}
	logic := xenstore.NewLogic(xenstore.NewState())
	m := New(h, cm.ID, machine.Serial, logic.Connect(cm.ID, true))
	return env, h, m, guest
}

func TestStartRequiresIOPorts(t *testing.T) {
	env, _, m, _ := setup(t, false)
	var err error
	env.Spawn("boot", func(p *sim.Proc) { err = m.Start(p) })
	env.RunAll()
	if !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("start without ports: %v", err)
	}
}

func TestConsoleRoundTrip(t *testing.T) {
	env, _, m, guest := setup(t, true)
	env.Spawn("boot", func(p *sim.Proc) {
		if err := m.Start(p); err != nil {
			t.Error(err)
			return
		}
		m.CreateConsole(guest.ID)
		if err := m.GuestWrite(guest.ID, "Linux version 2.6.31"); err != nil {
			t.Error(err)
		}
		if err := m.GuestWrite(guest.ID, "login:"); err != nil {
			t.Error(err)
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
	buf := m.Buffer(guest.ID)
	if len(buf) != 2 || buf[1] != "login:" {
		t.Fatalf("buffer = %v", buf)
	}
	if m.LinesHandled != 2 {
		t.Fatalf("lines = %d", m.LinesHandled)
	}
}

func TestWriteWithoutConsole(t *testing.T) {
	env, _, m, guest := setup(t, true)
	var err error
	env.Spawn("boot", func(p *sim.Proc) {
		m.Start(p)
		err = m.GuestWrite(guest.ID, "x")
	})
	env.RunFor(sim.Second)
	env.Shutdown()
	if !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("write without console: %v", err)
	}
}

func TestWriteBeforeStart(t *testing.T) {
	_, _, m, guest := setup(t, true)
	if err := m.GuestWrite(guest.ID, "x"); !errors.Is(err, xtypes.ErrShutdown) {
		t.Fatalf("write before start: %v", err)
	}
}

func TestRemoveConsole(t *testing.T) {
	env, _, m, guest := setup(t, true)
	env.Spawn("boot", func(p *sim.Proc) {
		m.Start(p)
		m.CreateConsole(guest.ID)
		m.CreateConsole(guest.ID) // idempotent
		if len(m.consoles) != 1 {
			t.Errorf("consoles = %d", len(m.consoles))
		}
		m.RemoveConsole(guest.ID)
		if err := m.GuestWrite(guest.ID, "x"); !errors.Is(err, xtypes.ErrNotFound) {
			t.Errorf("write after removal: %v", err)
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
}
