package hv

import (
	"errors"
	"testing"

	"xoar/internal/xtypes"
)

// gateCallers are the management hypercalls whose prologue is h.gate: each
// entry invokes its hypercall as caller against target.
var gateCallers = []struct {
	name string
	hc   xtypes.Hypercall
	call func(h *Hypervisor, caller, target xtypes.DomID) error
}{
	{"Unpause", xtypes.HyperDomctlUnpause, func(h *Hypervisor, c, t xtypes.DomID) error { return h.Unpause(c, t) }},
	{"Pause", xtypes.HyperDomctlPause, func(h *Hypervisor, c, t xtypes.DomID) error { return h.Pause(c, t) }},
	{"DestroyDomain", xtypes.HyperDomctlDestroy, func(h *Hypervisor, c, t xtypes.DomID) error { return h.DestroyDomain(c, t, "test") }},
	{"SetMaxMem", xtypes.HyperDomctlMaxMem, func(h *Hypervisor, c, t xtypes.DomID) error { return h.SetMaxMem(c, t, 128) }},
	{"Delegate", xtypes.HyperDelegateAdmin, func(h *Hypervisor, c, t xtypes.DomID) error { return h.Delegate(c, t, c) }},
	{"RevokeHypercall", xtypes.HyperDomctlPriv, func(h *Hypervisor, c, t xtypes.DomID) error {
		return h.RevokeHypercall(c, t, xtypes.HyperDebugOp)
	}},
	{"MapForeign", xtypes.HyperMapForeign, func(h *Hypervisor, c, t xtypes.DomID) error { return h.MapForeign(c, t, 0) }},
	{"GrantIOPorts", xtypes.HyperIOPortAccess, func(h *Hypervisor, c, t xtypes.DomID) error { return h.GrantIOPorts(c, t, "console") }},
	{"VMRollback", xtypes.HyperVMRollback, func(h *Hypervisor, c, t xtypes.DomID) error {
		_, err := h.VMRollback(c, t)
		return err
	}},
}

// gateFixture builds two toolstacks whitelisted for hc and a snapshotted
// shard whose parent is tool, so every gate caller can succeed against it.
func gateFixture(t *testing.T, hc xtypes.Hypercall) (h *Hypervisor, tool, other, target xtypes.DomID) {
	t.Helper()
	_, h = newHV(true)
	for _, name := range []string{"tool", "other"} {
		d := mkDom(t, h, name, true)
		if err := h.AssignPrivileges(SystemCaller, d.ID, Assignment{
			Hypercalls: []xtypes.Hypercall{xtypes.HyperDomctlCreate, hc},
		}); err != nil {
			t.Fatal(err)
		}
		if name == "tool" {
			tool = d.ID
		} else {
			other = d.ID
		}
	}
	d, err := h.CreateDomain(tool, DomainConfig{Name: "target", MemMB: 64, Shard: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Mem.TakeSnapshot()
	return h, tool, other, d.ID
}

// TestGateCallers pins the shared prologue of every management hypercall: a
// caller that holds the hypercall but does not control the target gets one
// counted ErrPerm, a missing target is ErrNoDomain and no denial, and the
// target's parent toolstack succeeds.
func TestGateCallers(t *testing.T) {
	for _, gc := range gateCallers {
		t.Run(gc.name, func(t *testing.T) {
			h, tool, other, target := gateFixture(t, gc.hc)
			for _, tc := range []struct {
				caller, target xtypes.DomID
				want           error
				denials        int
			}{
				{other, target, xtypes.ErrPerm, 1},
				{tool, 999, xtypes.ErrNoDomain, 0},
				{tool, target, nil, 0},
			} {
				before := h.DeniedCalls
				if err := gc.call(h, tc.caller, tc.target); !errors.Is(err, tc.want) {
					t.Errorf("%v on %v: err = %v, want %v", tc.caller, tc.target, err, tc.want)
				}
				if got := h.DeniedCalls - before; got != tc.denials {
					t.Errorf("%v on %v: DeniedCalls moved by %d, want %d", tc.caller, tc.target, got, tc.denials)
				}
			}
		})
	}
}
