package xoarlint

import (
	"strings"
	"testing"
)

// funcflowSrc exercises privilege flow through function values: closures
// stored into callback registries and func-typed fields, method values, and
// immediately invoked literals — the hv.Sink/OnDestroy-shaped surfaces that
// used to be privflow's blind spot.
const funcflowSrc = `package hv

import "xoar/internal/xtypes"

type Event struct {
	Kind string
	Dom  xtypes.DomID
}

type Domain struct {
	State int
}

type Evtchn struct{ handlers map[xtypes.DomID]func() }

func (e *Evtchn) SetHandler(dom xtypes.DomID, fn func()) { e.handlers[dom] = fn }

type Hypervisor struct {
	domains   map[xtypes.DomID]*Domain
	onDestroy []func(xtypes.DomID)
	Sink      func(Event)
	Evtchn    *Evtchn
}

func (h *Hypervisor) check(caller xtypes.DomID, hc xtypes.Hypercall) (*Domain, error) {
	return nil, nil
}
func (h *Hypervisor) controls(caller xtypes.DomID, d *Domain) bool { return true }

func (h *Hypervisor) emit(kind string, dom xtypes.DomID) {
	if h.Sink != nil {
		h.Sink(Event{Kind: kind, Dom: dom})
	}
}

func (h *Hypervisor) reap(target xtypes.DomID) { h.domains[target].State = 9 }

// A stored destructor that re-audits the domain it is invoked for: the
// deferred execution carries its own guard, so this is clean.
func (h *Hypervisor) DeferredAudited(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
		return err
	}
	h.onDestroy = append(h.onDestroy, func(id xtypes.DomID) {
		if _, err := h.check(id, xtypes.HyperDomctlDestroy); err != nil {
			return
		}
		h.domains[id].State = 0
	})
	return nil
}

// A locally bound closure invoked before the audit: the mutation runs at
// the call site, where no fact holds yet.
func (h *Hypervisor) EarlyClosure(caller, target xtypes.DomID) error {
	wipe := func() { h.domains[target].State = 1 }
	wipe()
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	return nil
}

// Immediately invoked literal ahead of the audit: same bug, different
// syntax (and formerly never walked at all).
func (h *Hypervisor) IIFE(caller, target xtypes.DomID) error {
	func() { h.domains[target].State = 2 }()
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	return nil
}

// Bound closure invoked after the audit: the call site is dominated, clean.
func (h *Hypervisor) LocalClosure(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	wipe := func() { h.domains[target].State = 3 }
	wipe()
	return nil
}

// Method value called through a local before the audit.
func (h *Hypervisor) MethodValue(caller, target xtypes.DomID) error {
	f := h.reap
	f(target)
	if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
		return err
	}
	return nil
}

// A closure handed to a callback registry (Evtchn.SetHandler) runs at an
// unknown later time: the audit performed here does not dominate it, and
// the reap it wraps mutates privileged state unguarded.
func (h *Hypervisor) MethodValueStored(caller, port xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperEvtchnOp); err != nil {
		return err
	}
	h.Evtchn.SetHandler(caller, func() { h.reap(caller) })
	return nil
}

// Audit-log wiring: calls through the func-typed Sink field are external
// subscriber code, not hv state mutation, so dominance demands no audit;
// the entry rule still flags a caller that is never audited.
func (h *Hypervisor) Notify(caller xtypes.DomID) {
	h.emit("notify", caller)
}

// A bare method value stored into an OnDestroy-style slice: reap runs
// later with no guard of its own.
func (h *Hypervisor) RegistryMethodValue(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
		return err
	}
	h.onDestroy = append(h.onDestroy, h.reap)
	return nil
}

// The audit passes, then the mutation hides inside a stored closure over
// the audited target — the seeded acceptance fixture.
func (h *Hypervisor) SneakyDeferred(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
		return err
	}
	h.onDestroy = append(h.onDestroy, func(id xtypes.DomID) {
		h.domains[target].State = 4
	})
	return nil
}
`

func TestFuncflowStoredClosuresAndMethodValues(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", funcflowSrc)
	diags := diagsOf(t, "privflow", p)
	// Position order: the three method-value bugs all surface at reap's
	// mutation (early in the file), then the rest in source order. Notify
	// mutates nothing but audits nothing either: the entry rule.
	wantDiags(t, diags,
		"hv.MethodValue: mutation of domains is not dominated",
		"hv.MethodValueStored: mutation of domains is not dominated",
		"hv.RegistryMethodValue: mutation of domains is not dominated",
		"hv.EarlyClosure: mutation of domains is not dominated",
		"hv.IIFE: mutation of domains is not dominated",
		"hv.Notify takes a caller DomID but never audits it",
		"hv.SneakyDeferred: mutation of domains is not dominated",
	)
	for i, want := range []string{
		"reached via reap",                // MethodValue: bound method value, call site
		"reached via stored func literal", // MethodValueStored: deferred closure
		"reached via reap",                // RegistryMethodValue: escaped method value
		"reached via func literal",        // EarlyClosure: bound literal, call site
		"reached via func literal",        // IIFE
		"",                                // Notify: no path
		"reached via stored func literal", // SneakyDeferred
	} {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diag %d = %q, want path %q", i, diags[i].Message, want)
		}
	}
	// The stored closure wrapping h.reap reports the full chain.
	if !strings.Contains(diags[1].Message, "-> reap") {
		t.Errorf("MethodValueStored diagnostic lacks the reap hop: %q", diags[1].Message)
	}
}

// TestFuncflowSuppressionInsideClosure pins suppression placement on a line
// inside a function literal body.
func TestFuncflowSuppressionInsideClosure(t *testing.T) {
	src := strings.Replace(funcflowSrc,
		"h.domains[target].State = 4",
		"h.domains[target].State = 4 //xoarlint:allow(privflow) teardown is re-audited by the destroy dispatcher", 1)
	p := loadSrc(t, "xoar/internal/hv", src)
	for _, d := range diagsOf(t, "privflow", p) {
		if strings.Contains(d.Message, "hv.SneakyDeferred") {
			t.Fatalf("suppressed closure-body diagnostic still reported: %v", d)
		}
	}
}

// TestFuncflowMatrixRows: function-value analysis feeds the same matrix —
// audits inside stored closures still land in the entry point's row.
func TestFuncflowMatrixRows(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", funcflowSrc)
	m, err := BuildPrivMatrix([]*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]PrivEntry{}
	for _, e := range m.Entrypoints {
		rows[e.Method] = e
	}
	if len(rows) != 9 {
		t.Fatalf("matrix has %d rows, want 9: %v", len(rows), sortedMatrixMethods(m))
	}
	da := rows["DeferredAudited"]
	if len(da.Privileges) != 1 || da.Privileges[0] != "HyperDomctlDestroy" {
		t.Errorf("DeferredAudited privileges = %v, want [HyperDomctlDestroy]", da.Privileges)
	}
	if got := rows["SneakyDeferred"].Mutates; len(got) != 2 || got[0] != "domains" || got[1] != "onDestroy" {
		t.Errorf("SneakyDeferred mutates = %v, want [domains onDestroy]", got)
	}
	if got := rows["MethodValueStored"].Mutates; len(got) != 2 || got[0] != "Evtchn" || got[1] != "domains" {
		t.Errorf("MethodValueStored mutates = %v, want [Evtchn domains] (SetHandler writes its registry)", got)
	}
	if got := rows["Notify"].Mutates; len(got) != 0 {
		t.Errorf("Notify mutates = %v, want none (Sink calls are external wiring)", got)
	}
}
