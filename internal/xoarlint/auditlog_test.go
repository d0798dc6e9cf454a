package xoarlint

import (
	"strings"
	"testing"
)

// auditlogSrc covers the emit-presence analysis: direct emits, emits and
// mutations carried through helpers, delete-based mutations, and the two
// gap shapes (no emit at all, mutation in a helper the entry point calls).
// Emission is wired end to end, as in the real hv: emit forwards through
// the func-typed Sink field, which is what the analyzer actually credits.
const auditlogSrc = `package hv

import "xoar/internal/xtypes"

type Event struct {
	Kind string
	Dom  xtypes.DomID
}

type Domain struct {
	State      int
	parentTool xtypes.DomID
}

type Hypervisor struct {
	domains    map[xtypes.DomID]*Domain
	virqRoutes map[int]xtypes.DomID
	Sink       func(Event)
	Fault      func(op string) error
}

func (h *Hypervisor) emit(kind string, dom xtypes.DomID, arg string) {
	if h.Sink != nil {
		h.Sink(Event{Kind: kind, Dom: dom})
	}
}

func (h *Hypervisor) teardown(d *Domain) {
	d.State = 9
	h.emit("destroy", 0, "")
}

// Direct mutation, direct emit: clean.
func (h *Hypervisor) Pause(caller, target xtypes.DomID) error {
	h.domains[target].State = 1
	h.emit("pause", target, "")
	return nil
}

// Mutation and emit both live in the helper: clean.
func (h *Hypervisor) Destroy(caller, target xtypes.DomID) error {
	h.teardown(h.domains[target])
	delete(h.domains, target)
	return nil
}

// Lifecycle mutation, no emit anywhere: flagged.
func (h *Hypervisor) SetParent(caller, guest, tool xtypes.DomID) error {
	h.domains[guest].parentTool = tool
	return nil
}

// Map delete on hypervisor state, no emit: flagged.
func (h *Hypervisor) DropRoute(caller xtypes.DomID, virq int) error {
	delete(h.virqRoutes, virq)
	return nil
}

// Read-only entry point: out of scope.
func (h *Hypervisor) Lookup(caller, target xtypes.DomID) *Domain {
	return h.domains[target]
}

func (h *Hypervisor) setParent(guest, tool xtypes.DomID) {
	h.domains[guest].parentTool = tool
}

// Lifecycle mutation through a bound method value, no emit: flagged.
func (h *Hypervisor) ReparentBound(caller, guest, tool xtypes.DomID) error {
	f := h.setParent
	f(guest, tool)
	return nil
}

// Lifecycle mutation through a pointer alias, no emit: flagged.
func (h *Hypervisor) ReparentPtr(caller, guest, tool xtypes.DomID) error {
	p := &h.domains[guest].parentTool
	*p = tool
	return nil
}

// A func-typed field that takes no Event is not an audit sink: flagged.
func (h *Hypervisor) RouteWithFault(caller xtypes.DomID, virq int) error {
	if err := h.Fault("route"); err != nil {
		return err
	}
	h.virqRoutes[virq] = caller
	return nil
}
`

func TestAuditlogGaps(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", auditlogSrc)
	wantDiags(t, diagsOf(t, "auditlog", p),
		"hv.SetParent mutates lifecycle/privilege state (Domain.parentTool) without appending an audit event through h's Event sink",
		"hv.DropRoute mutates lifecycle/privilege state (virqRoutes) without appending an audit event through h's Event sink",
		"hv.ReparentBound mutates lifecycle/privilege state (Domain.parentTool)",
		"hv.ReparentPtr mutates lifecycle/privilege state (Domain.parentTool)",
		"hv.RouteWithFault mutates lifecycle/privilege state (virqRoutes)",
	)
}

// TestAuditlogSeveredSinkWiring pins the end-to-end property: emit is
// credited because its body calls through the Sink field, not by name.
// Severing that wiring re-flags every entry point that emitted through it.
func TestAuditlogSeveredSinkWiring(t *testing.T) {
	src := strings.Replace(auditlogSrc,
		`	if h.Sink != nil {
		h.Sink(Event{Kind: kind, Dom: dom})
	}`,
		"\t_ = kind", 1)
	if src == auditlogSrc {
		t.Fatal("fixture replace missed")
	}
	p := loadSrc(t, "xoar/internal/hv", src)
	diags := diagsOf(t, "auditlog", p)
	for _, want := range []string{"hv.Pause", "hv.Destroy", "hv.SetParent", "hv.DropRoute"} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("severed Sink wiring: %s not flagged (emit credited by name, not by wiring?)", want)
		}
	}
}

func TestAuditlogScopedToHV(t *testing.T) {
	p := loadSrc(t, "xoar/internal/other", auditlogSrc)
	if diags := diagsOf(t, "auditlog", p); len(diags) != 0 {
		t.Fatalf("auditlog fired outside internal/hv: %v", diags)
	}
}

func TestAuditlogSuppression(t *testing.T) {
	src := strings.Replace(auditlogSrc,
		"func (h *Hypervisor) SetParent(",
		"//xoarlint:allow(auditlog) reparenting is logged by the caller\nfunc (h *Hypervisor) SetParent(", 1)
	p := loadSrc(t, "xoar/internal/hv", src)
	for _, d := range diagsOf(t, "auditlog", p) {
		if strings.Contains(d.Message, "SetParent") {
			t.Fatalf("suppressed diagnostic still reported: %v", d)
		}
	}
}
