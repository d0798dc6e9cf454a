package xoarlint

import (
	"fmt"
	"strings"
)

// auditlog enforces the §3.2.2 forensic property: the hash-chained audit
// log must witness every change to the privilege topology. A hypercall
// entry point that mutates lifecycle or privilege state — domain tables,
// VIRQ routes, parent-toolstack/delegation/client links, whitelists,
// port grants — without (transitively) appending an event via h.emit is
// invisible to the off-host log: queries like DependentsOf answer from
// stale state and the "notify affected customers" workflow silently lies.
//
// It reads privflow's walk of each entry point (privflow.go), so it follows
// helpers, bound and stored function values, aliases and shadowing exactly
// as privflow does. A mutation is a topology change when its path of fields
// ends in one of the topology fields below; the last one names it, so
// h.domains[id].parentTool = t changes Domain.parentTool and delete(h.domains,
// id) changes domains.
//
// Emission is detected structurally, end to end: an event leaves the
// hypervisor through a func-typed Hypervisor field that accepts the audit
// Event (h.Sink), resolved with funcFieldKey — the subscriber wiring the
// log attaches to. h.emit is credited because its body performs the Sink
// call, not because of its name, so severing the emit→Sink wiring re-flags
// every entry point that relied on it.
//
// The check is presence-level (privflow owns ordering): the entry point, or
// some code it reaches, must emit. Pure data-path mutations (grant/evtchn
// tables, memory, Mem images) are out of scope — they are high-rate and the
// paper logs topology changes, not traffic. On its first run this pass found
// four real gaps, fixed in internal/hv and regression-tested in
// internal/seceval: UnlinkShardClient (the log's own linkIntervals parser
// already handled "unlink-shard" records no one emitted, so DependentsOf
// overcounted exposure windows), SetParentTool, GrantIOPorts and
// RouteHardwareVIRQ.

// auditlogDomainFields are *Domain fields whose mutation changes the
// privilege topology and therefore must be logged.
var auditlogDomainFields = map[string]bool{
	"State":         true,
	"parentTool":    true,
	"delegates":     true,
	"privilegedFor": true,
	"clients":       true,
	"priv":          true,
	"ioPorts":       true,
	"Cfg":           true,
}

// auditlogHVFields are the *Hypervisor fields in scope.
var auditlogHVFields = map[string]bool{
	"domains":    true,
	"virqRoutes": true,
}

func init() {
	Register(&Analyzer{
		Name:      "auditlog",
		Doc:       "hv entry points mutating lifecycle/privilege state must append a hash-chained audit event through the Hypervisor's Event sink",
		RunModule: runAuditlog,
	})
}

func runAuditlog(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, c := range hvFlows(pkgs) {
		if len(c.topology) == 0 || c.emits {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      c.p.Fset.Position(c.decl.Name.Pos()),
			Analyzer: "auditlog",
			Message: fmt.Sprintf("hv.%s mutates lifecycle/privilege state (%s) without appending an audit event through %s's Event sink",
				c.decl.Name.Name, strings.Join(sortedKeys(c.topology), ", "), c.recv),
		})
	}
	return diags
}
