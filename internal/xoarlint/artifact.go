package xoarlint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The privilege matrix is privflow's structured artifact: one row per
// hypercall entry point of internal/hv, listing the specific xtypes.Hyper*
// privileges the caller is checked against, whether management rights
// (h.controls) are consulted, and which state roots the call can mutate.
// It is the Go analogue of the paper's Table 3.1 per-shard hypercall
// whitelists, checked into the repo as PRIVMATRIX.json and guarded by a
// drift test: widening the enforcement surface shows up as a reviewable
// diff, never as a silent change.

// PrivEntry is one row of the privilege matrix.
type PrivEntry struct {
	// Method is the exported *hv.Hypervisor entry point.
	Method string `json:"method"`
	// Privileges are the xtypes.Hyper* constants the caller is checked
	// against on some path through the entry point.
	Privileges []string `json:"privileges,omitempty"`
	// Controls reports whether the entry point consults management rights
	// over a target (h.controls).
	Controls bool `json:"controls,omitempty"`
	// Mutates lists the hypervisor/domain state roots the entry point can
	// mutate (directly or through helpers).
	Mutates []string `json:"mutates,omitempty"`
	// Exempt carries the allowlist rationale for entry points that audit
	// nothing by design; all other fields are empty for such rows.
	Exempt string `json:"exempt,omitempty"`
}

// PrivMatrix is the full artifact.
type PrivMatrix struct {
	// Source names the analyzed package.
	Source string `json:"source"`
	// Entrypoints are the rows, sorted by method name.
	Entrypoints []PrivEntry `json:"entrypoints"`
}

// BuildPrivMatrix runs the privflow analysis over the hv package among
// pkgs and returns the privilege matrix. Diagnostics are not reported here;
// RunAll owns enforcement, this owns the artifact.
func BuildPrivMatrix(pkgs []*Package) (*PrivMatrix, error) {
	flows := hvFlows(pkgs)
	if len(flows) == 0 {
		return nil, fmt.Errorf("xoarlint: %s not among the loaded packages", hvPath)
	}
	m := &PrivMatrix{Source: hvPath}
	for _, c := range flows {
		m.Entrypoints = append(m.Entrypoints, c.row)
	}
	return m, nil
}

// EncodeJSON renders the matrix in its canonical checked-in form:
// two-space indented, trailing newline.
func (m *PrivMatrix) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodePrivMatrix parses a checked-in matrix.
func DecodePrivMatrix(data []byte) (*PrivMatrix, error) {
	var m PrivMatrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("xoarlint: parsing privilege matrix: %w", err)
	}
	return &m, nil
}

// DiffPrivMatrices compares a checked-in matrix against a freshly built
// one and returns human-readable difference lines, empty when identical.
func DiffPrivMatrices(checked, built *PrivMatrix) []string {
	var out []string
	if checked.Source != built.Source {
		out = append(out, fmt.Sprintf("source: checked in %q, built %q", checked.Source, built.Source))
	}
	want := map[string]PrivEntry{}
	for _, e := range checked.Entrypoints {
		want[e.Method] = e
	}
	got := map[string]PrivEntry{}
	for _, e := range built.Entrypoints {
		got[e.Method] = e
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
			out = append(out, fmt.Sprintf("- %s: entry point removed (was %s)", n, describeEntry(w)))
		case !inW:
			out = append(out, fmt.Sprintf("+ %s: new entry point (%s)", n, describeEntry(g)))
		case describeEntry(w) != describeEntry(g):
			out = append(out, fmt.Sprintf("~ %s: checked in {%s}, built {%s}", n, describeEntry(w), describeEntry(g)))
		}
	}
	return out
}

func describeEntry(e PrivEntry) string {
	if e.Exempt != "" {
		return "exempt: " + e.Exempt
	}
	parts := []string{"privileges=[" + strings.Join(e.Privileges, " ") + "]"}
	if e.Controls {
		parts = append(parts, "controls")
	}
	parts = append(parts, "mutates=["+strings.Join(e.Mutates, " ")+"]")
	return strings.Join(parts, " ")
}
