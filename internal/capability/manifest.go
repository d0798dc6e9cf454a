package capability

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"xoar/internal/xtypes"
)

// The capability manifest is the generated, checked-in contract between the
// static analysis and the running system: per shard role, the exact
// hypercall grant set, where each grant comes from (the matrix entry points
// that demand it, or a rationale for the two non-hv enforcement points), its
// ring classification, and a risk score. `cmd/xoarlint -capmanifest`
// regenerates it; TestCapManifestDrift pins it byte-for-byte; the boot
// profiles read their whitelists out of the embedded copy below. Editing the
// JSON by hand therefore changes what the system actually grants — and
// immediately fails both the drift gate and the seceval whitelist tests.

// Grant is one hypercall in a shard's whitelist.
type Grant struct {
	// Hypercall is the xtypes constant name, e.g. "HyperDomctlCreate".
	Hypercall string `json:"hypercall"`
	// Call is the wire name (xtypes.Hypercall.String), the decode key.
	Call string `json:"call"`
	// Ring is the §7.1 classification: "ring0" or "deprivileged".
	Ring string `json:"ring"`
	// Risk scores the grant: ring weight (ring0=3, deprivileged=1) plus the
	// number of distinct state roots mutable through the entry points that
	// demand it (mutation breadth, from PRIVMATRIX `mutates`).
	Risk int `json:"risk"`
	// Ops are the privilege-matrix entry points that demand this grant;
	// empty only for rationale grants.
	Ops []string `json:"ops,omitempty"`
	// Mutates is the union of state roots reachable through Ops.
	Mutates []string `json:"mutates,omitempty"`
	// Rationale justifies grants no hv entry point demands (enforced
	// outside hv dispatch).
	Rationale string `json:"rationale,omitempty"`
}

// Surface is a shard's attack-surface summary.
type Surface struct {
	// Grants is the whitelist size.
	Grants int `json:"grants"`
	// Ring0Grants counts grants that keep ring-0 work reachable.
	Ring0Grants int `json:"ring0_grants"`
	// RiskTotal sums the per-grant risk scores.
	RiskTotal int `json:"risk_total"`
	// StateRoots is the union of hypervisor/domain state roots the shard
	// can mutate through its whitelist.
	StateRoots []string `json:"state_roots,omitempty"`
}

// ShardManifest is one shard role's capability manifest.
type ShardManifest struct {
	Role    string   `json:"role"`
	Doc     string   `json:"doc,omitempty"`
	IOPorts []string `json:"io_ports,omitempty"`
	Grants  []Grant  `json:"grants,omitempty"`
	Surface Surface  `json:"surface"`
}

// Manifest is the full artifact.
type Manifest struct {
	// Source names the derivation.
	Source string `json:"source"`
	// Shards are the per-role manifests, sorted by role name.
	Shards []ShardManifest `json:"shards"`
}

// EncodeJSON renders the manifest in its canonical checked-in form:
// two-space indented, trailing newline. All slices are sorted at build
// time, so encoding the same derivation twice is byte-identical.
func (m *Manifest) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeManifest parses a checked-in manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("capability: parsing manifest: %w", err)
	}
	return &m, nil
}

// DiffManifests compares a checked-in manifest against a freshly built one
// and returns human-readable difference lines, empty when identical.
//
//xoarlint:allow(unused) test support: TestCapManifestDrift reports drift with it
func DiffManifests(checked, built *Manifest) []string {
	var out []string
	if checked.Source != built.Source {
		out = append(out, fmt.Sprintf("source: checked in %q, built %q", checked.Source, built.Source))
	}
	want := map[string]ShardManifest{}
	for _, s := range checked.Shards {
		want[s.Role] = s
	}
	got := map[string]ShardManifest{}
	for _, s := range built.Shards {
		got[s.Role] = s
	}
	var names []string
	seen := map[string]bool{}
	for n := range want {
		names = append(names, n)
		seen[n] = true
	}
	for n := range got {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w, inW := want[n]
		g, inG := got[n]
		switch {
		case !inG:
			out = append(out, fmt.Sprintf("- %s: shard removed (was %s)", n, describeShard(w)))
		case !inW:
			out = append(out, fmt.Sprintf("+ %s: new shard (%s)", n, describeShard(g)))
		case describeShard(w) != describeShard(g):
			out = append(out, fmt.Sprintf("~ %s: checked in {%s}, built {%s}", n, describeShard(w), describeShard(g)))
		}
	}
	return out
}

func describeShard(s ShardManifest) string {
	var grants []string
	for _, g := range s.Grants {
		grants = append(grants, g.Hypercall)
	}
	parts := []string{"grants=[" + strings.Join(grants, " ") + "]"}
	if len(s.IOPorts) > 0 {
		parts = append(parts, "ioports=["+strings.Join(s.IOPorts, " ")+"]")
	}
	parts = append(parts, fmt.Sprintf("risk=%d", s.Surface.RiskTotal))
	return strings.Join(parts, " ")
}

// SurfaceReport renders the generated attack-surface report: one line per
// shard with its whitelist size, residual ring-0 exposure, total risk and
// reachable state roots — the reviewable answer to "what can this shard do
// to the hypervisor if compromised" (§2.3).
func (m *Manifest) SurfaceReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attack surface per shard (derived from %s)\n", m.Source)
	fmt.Fprintf(&b, "%-14s %6s %6s %5s  %s\n", "shard", "grants", "ring0", "risk", "mutable state roots")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "%-14s %6d %6d %5d  %s\n",
			s.Role, s.Surface.Grants, s.Surface.Ring0Grants, s.Surface.RiskTotal,
			strings.Join(s.Surface.StateRoots, " "))
	}
	return b.String()
}

// --- embedded runtime copy ---------------------------------------------------

//go:embed CAPMANIFEST.json
var embeddedManifest []byte

var (
	embedded       *Manifest
	embeddedByRole map[string]*ShardManifest
	embeddedGrants map[string][]xtypes.Hypercall
)

// init parses the checked-in manifest once. A corrupt or unresolvable
// manifest fails fast: every boot in the tree depends on it, and the drift
// gate means the only way to reach this panic is editing the artifact by
// hand without regenerating.
func init() {
	m, err := DecodeManifest(embeddedManifest)
	if err != nil {
		panic(fmt.Sprintf("capability: embedded CAPMANIFEST.json: %v (regenerate with: make capmanifest)", err))
	}
	embedded = m
	embeddedByRole = map[string]*ShardManifest{}
	embeddedGrants = map[string][]xtypes.Hypercall{}
	for i := range m.Shards {
		s := &m.Shards[i]
		embeddedByRole[s.Role] = s
		var hcs []xtypes.Hypercall
		for _, g := range s.Grants {
			hc, ok := xtypes.HypercallByName(g.Call)
			if !ok {
				panic(fmt.Sprintf("capability: CAPMANIFEST.json grant %q of shard %q names unknown hypercall %q (regenerate with: make capmanifest)",
					g.Hypercall, s.Role, g.Call))
			}
			hcs = append(hcs, hc)
		}
		embeddedGrants[s.Role] = hcs
	}
}

// Lookup returns one shard's manifest from the embedded artifact.
func Lookup(role string) (*ShardManifest, bool) {
	s, ok := embeddedByRole[role]
	return s, ok
}

// Hypercalls returns the hypercall whitelist the manifest grants a shard
// role, in manifest (ascending hypercall) order. Unknown roles panic: role
// names are compile-time constants and the manifest is drift-gated, so a
// miss is a wiring bug, not an input error.
func Hypercalls(role string) []xtypes.Hypercall {
	hcs, ok := embeddedGrants[role]
	if !ok {
		panic(fmt.Sprintf("capability: no manifest entry for shard role %q", role))
	}
	return append([]xtypes.Hypercall(nil), hcs...)
}

// IOPorts returns the named I/O-port ranges the manifest assigns a shard
// role.
func IOPorts(role string) []string {
	s, ok := embeddedByRole[role]
	if !ok {
		panic(fmt.Sprintf("capability: no manifest entry for shard role %q", role))
	}
	return append([]string(nil), s.IOPorts...)
}

// NonHVGrants returns the hypercalls the manifest grants a role without an
// hv dispatch derivation (rationale grants) — whitelist entries the seceval
// denial table must not expect an hv entry point for.
//
//xoarlint:allow(unused) test support: the seceval whitelist tests exempt rationale grants with it
func NonHVGrants() map[xtypes.Hypercall]bool {
	out := map[xtypes.Hypercall]bool{}
	for _, s := range embedded.Shards {
		for _, g := range s.Grants {
			if g.Rationale == "" {
				continue
			}
			if hc, ok := xtypes.HypercallByName(g.Call); ok {
				out[hc] = true
			}
		}
	}
	return out
}
