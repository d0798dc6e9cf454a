package xoarlint

import (
	"fmt"
	"go/ast"
)

// privcheck enforces the paper's core mechanism (§3, §5.6): every hypercall
// entry point audits its caller. Concretely, an exported *hv.Hypervisor
// method that takes a domain ID — the hypercall surface of the model — must
// consult the privilege state via h.check (whitelist audit) or h.controls
// (management-rights audit) before touching hypervisor or domain state.
// Methods that are read-only queries, or deliberately unprivileged by the
// paper's design, are allowlisted below with their rationale.
//
// This is exactly the "forgotten audit" bug class of the §6.2 CVE study:
// the two violations privcheck found on day one (UnmapForeign and
// RegisterRecoveryBox shipping without any check) are fixed in this tree
// and regression-tested in internal/seceval.

// privcheckAllowed are exported *Hypervisor methods that legitimately skip
// the audit helpers.
var privcheckAllowed = map[string]string{
	// Read-only queries: they reveal only what the caller could observe
	// through its own hypercall results and mutate nothing.
	"Domain":     "lookup; read-only",
	"Domains":    "enumeration; read-only",
	"VIRQRoute":  "route query; read-only",
	"HasIOPorts": "port-range query; read-only",
	// InjectHardwareVIRQ models the hardware interrupt source itself, not a
	// domain-issued hypercall; it has no caller to audit.
	"InjectHardwareVIRQ": "hardware source, no caller",
	// Compute charges simulated CPU time; scheduling one's own work is the
	// unprivileged baseline of any guest.
	"Compute": "CPU accounting; unprivileged by design",
	// SelfExit is the §5.8 hypervisor modification that lets boot-time
	// components (Bootstrapper, PCIBack) destroy themselves: voluntary exit
	// is deliberately unprivileged and only ever targets the caller.
	"SelfExit": "voluntary exit; unprivileged by design (§5.8)",
}

func init() {
	Register(&Analyzer{
		Name: "privcheck",
		Doc:  "exported *hv.Hypervisor methods taking a DomID must audit the caller via h.check or h.controls",
		Run:  runPrivcheck,
	})
}

func runPrivcheck(p *Package) []Diagnostic {
	if p.Path != "xoar/internal/hv" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.Test[f] {
			continue // test helpers are not hypercall entry points
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			recv := receiverName(fn, "Hypervisor")
			if recv == "" {
				continue
			}
			if _, ok := privcheckAllowed[fn.Name.Name]; ok {
				continue
			}
			domParams := domIDParams(p, fn)
			if len(domParams) == 0 {
				continue
			}
			if auditsCaller(fn.Body, recv, domParams) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(fn.Name.Pos()),
				Analyzer: "privcheck",
				Message: fmt.Sprintf("hv.%s takes a caller DomID but never calls %s.check or %s.controls before acting",
					fn.Name.Name, recv, recv),
			})
		}
	}
	return diags
}

// receiverName returns the receiver identifier of a method on *typeName (or
// typeName), or "" if the receiver is a different type or anonymous.
func receiverName(fn *ast.FuncDecl, typeName string) string {
	if len(fn.Recv.List) != 1 {
		return ""
	}
	field := fn.Recv.List[0]
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok || id.Name != typeName {
		return ""
	}
	if len(field.Names) != 1 {
		return ""
	}
	return field.Names[0].Name
}

// domIDParams returns the names of parameters typed xtypes.DomID.
func domIDParams(p *Package, fn *ast.FuncDecl) map[string]bool {
	return domIDFields(p, fn.Type.Params)
}

// domIDFields is domIDParams over a bare parameter list — shared with
// privflow's function-literal analysis, where there is no FuncDecl.
func domIDFields(p *Package, params *ast.FieldList) map[string]bool {
	out := map[string]bool{}
	if params == nil {
		return out
	}
	for _, field := range params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "DomID" {
			continue
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || p.pkgPathOf(x) != "xoar/internal/xtypes" {
			continue
		}
		for _, n := range field.Names {
			out[n.Name] = true
		}
	}
	return out
}

// auditsCaller reports whether body contains a call recv.check(param, …) or
// recv.controls(…). For check, the first argument must be one of the
// method's own DomID parameters — auditing a constant or an unrelated
// domain is still a forgotten audit.
func auditsCaller(body *ast.BlockStmt, recv string, domParams map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || x.Name != recv {
			return true
		}
		switch sel.Sel.Name {
		case "controls":
			found = true
		case "check":
			if len(call.Args) > 0 {
				if arg, ok := call.Args[0].(*ast.Ident); ok && domParams[arg.Name] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
