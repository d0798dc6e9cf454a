package xoarlint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// privflowSrc exercises the dominance analysis: the clean idioms used by
// internal/hv, plus the audit-ordering bugs that contain an audit call and
// are still wrong.
const privflowSrc = `package hv

import (
	"errors"

	"xoar/internal/xtypes"
)

type Domain struct {
	State   int
	clients map[xtypes.DomID]bool
}

// GrantTable and Disk are state objects: a call through one is a mutation
// when the method's body writes.
type GrantTable struct{ revoked map[xtypes.DomID]bool }

func (g *GrantTable) Revoke(dom xtypes.DomID) { g.revoked[dom] = true }

type Disk struct{ ReadBytes int }

// Read bumps the disk's counters, as hw.(*Disk).Read does; Size only reads.
func (d *Disk) Read(n int) { d.ReadBytes += n }
func (d *Disk) Size() int  { return d.ReadBytes }

type Machine struct{ Disk *Disk }

// Order has a State field too, but it is not a Domain's.
type Order struct{ State int }

type Hypervisor struct {
	domains     map[xtypes.DomID]*Domain
	Grants      *GrantTable
	Machine     *Machine
	DeniedCalls int
}

func (h *Hypervisor) check(caller xtypes.DomID, hc xtypes.Hypercall) (*Domain, error) {
	return nil, nil
}
func (h *Hypervisor) controls(caller xtypes.DomID, d *Domain) bool { return true }

// requirePriv is the hoisted audit-helper pattern: check and enforce.
func (h *Hypervisor) requirePriv(caller xtypes.DomID, hc xtypes.Hypercall) error {
	if _, err := h.check(caller, hc); err != nil {
		return err
	}
	return nil
}

// gate is h.gate's shape: whitelist, lookup and management rights in one
// helper whose error the caller enforces.
func (h *Hypervisor) gate(caller xtypes.DomID, hc xtypes.Hypercall, target xtypes.DomID) (*Domain, error) {
	if _, err := h.check(caller, hc); err != nil {
		return nil, err
	}
	d := h.domains[target]
	if !h.controls(caller, d) {
		return nil, errors.New("denied")
	}
	return d, nil
}

func (h *Hypervisor) reap(d *Domain) { d.State = 9 }

// Guard dominates the mutation: clean.
func (h *Hypervisor) Pause(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	h.domains[target].State = 1
	return nil
}

// Management audit via the bool primitive: clean.
func (h *Hypervisor) Link(caller, shard, guest xtypes.DomID) error {
	d := h.domains[shard]
	if !h.controls(caller, d) {
		return nil
	}
	d.clients[guest] = true
	return nil
}

// Audit hoisted into a helper and enforced by the caller: clean, and the
// helper's specific privilege must land in the matrix.
func (h *Hypervisor) ViaHelper(caller, target xtypes.DomID) error {
	if err := h.requirePriv(caller, xtypes.HyperDomctlCreate); err != nil {
		return err
	}
	h.reap(h.domains[target])
	return nil
}

// Audit through the gate helper, enforced by the caller: clean, and both
// the privilege and the management audit land in the matrix.
func (h *Hypervisor) ViaGate(caller, target xtypes.DomID) error {
	d, err := h.gate(caller, xtypes.HyperDomctlPause, target)
	if err != nil {
		return err
	}
	d.State = 5
	return nil
}

// Audit after the mutation: flagged.
func (h *Hypervisor) LateAudit(caller, target xtypes.DomID) error {
	h.domains[target].State = 2
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	return nil
}

// Audit on one branch only: flagged.
func (h *Hypervisor) BranchAudit(caller, target xtypes.DomID, hard bool) error {
	if hard {
		if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
			return err
		}
	}
	h.domains[target].State = 3
	return nil
}

// Audit result dropped on the floor: never enforced, flagged.
func (h *Hypervisor) Dropped(caller, target xtypes.DomID) error {
	_, _ = h.check(caller, xtypes.HyperDomctlPause)
	h.domains[target].State = 4
	return nil
}

// Mutation buried in an unaudited helper: caught, with the path reported,
// and no audit at all, so the entry rule fires too.
func (h *Hypervisor) BadViaHelper(caller, target xtypes.DomID) error {
	h.reap(h.domains[target])
	return nil
}

// The privilege must be a specific constant, not a variable; a variable
// audits nothing, so the entry rule fires too.
func (h *Hypervisor) Dynamic(caller xtypes.DomID, hc xtypes.Hypercall) error {
	if _, err := h.check(caller, hc); err != nil {
		return err
	}
	return nil
}

// Allowlisted entry point: exempt row in the matrix.
func (h *Hypervisor) Compute(caller xtypes.DomID) {}

// A local alias of a state object carries its root: the revoke before the
// audit is flagged.
func (h *Hypervisor) AliasRevoke(caller xtypes.DomID) error {
	g := h.Grants
	g.Revoke(caller)
	if _, err := h.check(caller, xtypes.HyperGrantTableOp); err != nil {
		return err
	}
	return nil
}

// Disk.Read writes its receiver, so the read before the audit is flagged;
// Disk.Size does not.
func (h *Hypervisor) DiskRead(caller xtypes.DomID) error {
	_ = h.Machine.Disk.Size()
	h.Machine.Disk.Read(1)
	if _, err := h.check(caller, xtypes.HyperDebugOp); err != nil {
		return err
	}
	return nil
}

// The audited caller is a local shadowing the entry's parameter: the
// mutation is flagged, and so is the missing audit.
func (h *Hypervisor) Shadowed(caller, target xtypes.DomID) error {
	if caller := xtypes.DomID(0); caller != target {
		if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
			return err
		}
		h.domains[target].State = 6
	}
	return nil
}

// A pointer into a Domain field carries its root: the store through it
// before the audit is flagged.
func (h *Hypervisor) PointerStore(caller xtypes.DomID, d *Domain) error {
	st := &d.State
	*st = 7
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	return nil
}

// Order.State is not Domain.State: clean.
func (h *Hypervisor) OtherState(caller xtypes.DomID, o *Order) error {
	o.State = 3
	if _, err := h.check(caller, xtypes.HyperDebugOp); err != nil {
		return err
	}
	return nil
}
`

func TestPrivflowDominance(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	diags := diagsOf(t, "privflow", p)
	wantDiags(t, diags,
		"hv.BadViaHelper: mutation of Domain.State is not dominated", // in reap, early in the file
		"hv.LateAudit: mutation of domains is not dominated",
		"hv.BranchAudit: mutation of domains is not dominated",
		"hv.Dropped: mutation of domains is not dominated",
		"hv.BadViaHelper takes a caller DomID but never audits it",
		"hv.Dynamic takes a caller DomID but never audits it",
		"must name a specific xtypes.Hyper* constant",
		"hv.AliasRevoke: mutation of Grants is not dominated",
		"hv.DiskRead: mutation of Machine.Disk is not dominated",
		"hv.Shadowed takes a caller DomID but never audits it",
		"hv.Shadowed: mutation of domains is not dominated",
		"hv.PointerStore: mutation of Domain.State is not dominated",
	)
	if !strings.Contains(diags[0].Message, "reached via reap") {
		t.Errorf("helper-path diagnostic lacks the inline chain: %q", diags[0].Message)
	}
}

// TestPrivflowCreditsAuditHelpers: an audit hoisted into a helper counts
// for the entry point once the entry point enforces the helper's result,
// both for a check-only helper and for a gate-shaped one.
func TestPrivflowCreditsAuditHelpers(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	for _, d := range diagsOf(t, "privflow", p) {
		if strings.Contains(d.Message, "hv.ViaHelper") || strings.Contains(d.Message, "hv.ViaGate") {
			t.Errorf("helper-audited entry point flagged: %v", d)
		}
	}
}

// privflowEntrySrc exercises the entry rule: an exported method taking a
// DomID must audit one of its own DomID parameters.
const privflowEntrySrc = `package hv

import "xoar/internal/xtypes"

type Hypervisor struct{ DeniedCalls int }

func (h *Hypervisor) check(caller xtypes.DomID, hc xtypes.Hypercall) (*int, error) { return nil, nil }
func (h *Hypervisor) controls(caller xtypes.DomID, d *int) bool                    { return true }

// Audited: fine.
func (h *Hypervisor) Destroy(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
		return err
	}
	return nil
}

// Audited via controls: fine.
func (h *Hypervisor) Link(caller, shard xtypes.DomID) error {
	if !h.controls(caller, nil) {
		return nil
	}
	return nil
}

// Forgotten audit: flagged.
func (h *Hypervisor) UnmapEverything(caller, target xtypes.DomID) error {
	return nil
}

// check called on a constant, not the caller parameter: still flagged.
func (h *Hypervisor) Sneaky(caller xtypes.DomID) error {
	_, err := h.check(0, xtypes.HyperDomctlPause)
	return err
}

// Unexported: out of scope.
func (h *Hypervisor) internalOp(caller xtypes.DomID) {}

// No DomID parameter: out of scope.
func (h *Hypervisor) Stats() int { return h.DeniedCalls }

// Exempt read-only query.
func (h *Hypervisor) HasIOPorts(dom xtypes.DomID, r string) bool { return false }
`

func TestPrivflowFlagsForgottenAudit(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowEntrySrc)
	wantDiags(t, diagsOf(t, "privflow", p),
		"hv.UnmapEverything takes a caller DomID but never audits it with h.check or h.controls",
		"hv.Sneaky takes a caller DomID but never audits it with h.check or h.controls",
	)
}

func TestPrivflowEntrySuppression(t *testing.T) {
	src := strings.Replace(privflowEntrySrc,
		"// Forgotten audit: flagged.",
		"//xoarlint:allow(privflow) verified audited by dispatcher in review", 1)
	p := loadSrc(t, "xoar/internal/hv", src)
	wantDiags(t, diagsOf(t, "privflow", p), "hv.Sneaky")
}

func TestPrivflowScopedToHV(t *testing.T) {
	p := loadSrc(t, "xoar/internal/other", privflowSrc)
	if diags := diagsOf(t, "privflow", p); len(diags) != 0 {
		t.Fatalf("privflow fired outside internal/hv: %v", diags)
	}
}

// TestPrivcheckScopedToHV: privcheck's forgotten-audit rule, now privflow's
// entry rule, stays scoped to internal/hv.
func TestPrivcheckScopedToHV(t *testing.T) {
	p := loadSrc(t, "xoar/internal/other", privflowEntrySrc)
	if diags := diagsOf(t, "privflow", p); len(diags) != 0 {
		t.Fatalf("entry rule fired outside internal/hv: %v", diags)
	}
}

func TestPrivflowSuppression(t *testing.T) {
	src := strings.Replace(privflowSrc,
		"h.domains[target].State = 2",
		"h.domains[target].State = 2 //xoarlint:allow(privflow) mutation rolled back below on audit failure", 1)
	p := loadSrc(t, "xoar/internal/hv", src)
	diags := diagsOf(t, "privflow", p)
	for _, d := range diags {
		if strings.Contains(d.Message, "hv.LateAudit") {
			t.Fatalf("suppressed diagnostic still reported: %v", d)
		}
	}
}

// --- privilege matrix --------------------------------------------------------

func TestPrivMatrixRows(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	m, err := BuildPrivMatrix([]*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]PrivEntry{}
	for _, e := range m.Entrypoints {
		rows[e.Method] = e
	}
	via := rows["ViaHelper"]
	if len(via.Privileges) != 1 || via.Privileges[0] != "HyperDomctlCreate" {
		t.Errorf("ViaHelper privileges = %v, want [HyperDomctlCreate] (credited through requirePriv)", via.Privileges)
	}
	if !rows["Link"].Controls {
		t.Errorf("Link should record a management-rights (controls) audit")
	}
	if got := rows["Pause"].Mutates; len(got) != 1 || got[0] != "domains" {
		t.Errorf("Pause mutates = %v, want [domains]", got)
	}
	if gate := rows["ViaGate"]; len(gate.Privileges) != 1 || gate.Privileges[0] != "HyperDomctlPause" || !gate.Controls {
		t.Errorf("ViaGate row = %+v, want [HyperDomctlPause] and controls (credited through gate)", gate)
	}
	if rows["Compute"].Exempt == "" {
		t.Errorf("Compute should carry its exemption rationale")
	}
	for method, want := range map[string]string{
		"AliasRevoke":  "Grants",
		"DiskRead":     "Machine.Disk", // not Size, which only reads
		"PointerStore": "Domain.State",
		"OtherState":   "", // Order.State is not Domain state
	} {
		if got := strings.Join(rows[method].Mutates, " "); got != want {
			t.Errorf("%s mutates = [%s], want [%s]", method, got, want)
		}
	}
	if len(rows) != 15 {
		t.Errorf("matrix has %d rows, want 15: %v", len(rows), sortedMatrixMethods(m))
	}
}

func TestPrivMatrixDiff(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	m, err := BuildPrivMatrix([]*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffPrivMatrices(m, m); len(d) != 0 {
		t.Fatalf("identical matrices diff: %v", d)
	}

	// Round-trip through the canonical encoding.
	enc, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePrivMatrix(enc)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffPrivMatrices(back, m); len(d) != 0 {
		t.Fatalf("round-tripped matrix diffs: %v", d)
	}

	// A widened entry point and a removed one both surface readably.
	mod := *back
	mod.Entrypoints = append([]PrivEntry{}, back.Entrypoints...)
	for i := range mod.Entrypoints {
		if mod.Entrypoints[i].Method == "Pause" {
			mod.Entrypoints[i].Privileges = []string{"HyperDomctlCreate", "HyperDomctlPause"}
		}
	}
	var kept []PrivEntry
	for _, e := range mod.Entrypoints {
		if e.Method != "Link" {
			kept = append(kept, e)
		}
	}
	mod.Entrypoints = kept
	diff := DiffPrivMatrices(&mod, m)
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want 2 lines", diff)
	}
	if !strings.Contains(diff[0], "+ Link") {
		t.Errorf("diff[0] = %q, want new-entry-point line for Link", diff[0])
	}
	if !strings.Contains(diff[1], "~ Pause") || !strings.Contains(diff[1], "HyperDomctlCreate") {
		t.Errorf("diff[1] = %q, want changed line for Pause naming the extra privilege", diff[1])
	}
}

func sortedMatrixMethods(m *PrivMatrix) []string {
	var out []string
	for _, e := range m.Entrypoints {
		out = append(out, e.Method)
	}
	return out
}

// TestPrivflowSeesRealHV runs privflow on a copy of the real internal/hv,
// unedited and with textual edits, and requires exactly the findings each
// edit makes. The matrix drift test compares only rows, so it would not
// notice privflow going blind to ordering on the real package. The rest of
// the module is loaded beside the copy, so calls into mm, grant and evtchn
// are judged by their real bodies, as in a run over ./... .
func TestPrivflowSeesRealHV(t *testing.T) {
	module, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var rest []*Package
	for _, p := range module {
		if p.Path != hvPath {
			rest = append(rest, p)
		}
	}
	type edit struct{ file, old, new string }
	for _, tc := range []struct {
		name  string
		edits []edit
		want  []string
	}{
		{name: "unedited"},
		{
			name: "Pause writes its state before its gate",
			edits: []edit{{"hv.go", `	d, err := h.gate(caller, xtypes.HyperDomctlPause, target)
	if err != nil {
		return err
	}
	d.State = StatePaused
`, `	d, err := h.Domain(target)
	if err != nil {
		return err
	}
	d.State = StatePaused
	if _, err := h.gate(caller, xtypes.HyperDomctlPause, target); err != nil {
		return err
	}
`}},
			want: []string{"hv.Pause: mutation of Domain.State is not dominated"},
		},
		{
			name: "Grant goes through an alias of h.Grants before its check",
			edits: []edit{{"priv.go", `	if _, err := h.check(caller, xtypes.HyperGrantTableOp); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	if err := h.ivcAllowed(caller, grantee); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	ref, err := h.Grants.Grant(caller, grantee, pfn, readOnly)
	return ref, h.deny(err)
`, `	g := h.Grants
	ref, gerr := g.Grant(caller, grantee, pfn, readOnly)
	if _, err := h.check(caller, xtypes.HyperGrantTableOp); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	if err := h.ivcAllowed(caller, grantee); err != nil {
		return xtypes.GrantRefInvalid, err
	}
	return ref, h.deny(gerr)
`}},
			want: []string{"hv.Grant: mutation of Grants is not dominated"},
		},
		{
			// mm.(*DomainMem).Snapshot only reads, so asking for it before
			// the check is no mutation.
			name: "VMSnapshot reads its snapshot before its check",
			edits: []edit{{"priv.go", `	if _, err := h.check(caller, xtypes.HyperVMSnapshot); err != nil {
		return err
	}
	// Snapshots`, `	_ = d.Mem.Snapshot()
	if _, err := h.check(caller, xtypes.HyperVMSnapshot); err != nil {
		return err
	}
	// Snapshots`}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files, err := filepath.Glob(filepath.Join("..", "hv", "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range files {
				name := filepath.Base(file)
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range tc.edits {
					if e.file == name {
						if !strings.Contains(string(src), e.old) {
							t.Fatalf("edit does not apply to %s", name)
						}
						src = []byte(strings.Replace(string(src), e.old, e.new, 1))
					}
				}
				if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			hv, err := LoadDir(dir, hvPath)
			if err != nil {
				t.Fatal(err)
			}
			wantDiags(t, runPrivflow(append(hv, rest...)), tc.want...)
		})
	}
}
