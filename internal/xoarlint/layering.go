package xoarlint

import (
	"fmt"
	"strings"
)

// layering makes the paper's "no side channels between shards" property
// (§5.6) visible in the import graph. Each service shard runs in its own
// domain and may talk to peers only over channels the hypervisor has
// explicitly linked; the Go packages modelling those shards must mirror
// that: a service package may import shared leaves (xtypes, sim, ring,
// telemetry, hw, the hv interface they call into, and xenbus, the
// split-driver core netdrv and blkdrv each link in, as every Linux backend
// links xenbus_client) but not one another.
// A new cross-service import is a side channel the hypervisor never
// audited, and fails the build here.
//
// One edge is sanctioned in the DAG itself: every service may import
// xenstore, whose Conn/Logic types are the client wire-protocol library —
// the analogue of libxenstore compiled into each real shard. The import
// carries no shared state; runtime traffic still rides hv-audited IVC.
// The two control-plane packages that hold handles to service objects by
// construction (toolstack orchestrates device attach; qemudm embeds the
// frontend halves of its HVM guest's devices) carry explicit
// //xoarlint:allow(layering) suppressions at each import instead, so every
// exception stays visible and justified at the use site.
//
// Test files are exempt: a _test.go harness legitimately wires several
// shards together the way the boot process does.

// servicePackages are the shard-service packages under xoar/internal/.
var servicePackages = map[string]bool{
	"netdrv":     true,
	"blkdrv":     true,
	"xenstore":   true,
	"consolemgr": true,
	"toolstack":  true,
	"qemudm":     true,
	"pciback":    true,
}

// sanctionedEdges are service→service imports declared legal in the DAG.
var sanctionedEdges = map[string]bool{
	// The xenstore client library: shards bundle the protocol code, data
	// flows over linked rings (see package comment).
	"*->xenstore": true,
}

func init() {
	Register(&Analyzer{
		Name: "layering",
		Doc:  "shard service packages may not import one another; only shared leaves and sanctioned edges",
		Run:  runLayering,
	})
}

func runLayering(p *Package) []Diagnostic {
	if !p.Internal() || !servicePackages[p.ShortName()] {
		return nil
	}
	from := p.ShortName()
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.Test[f] {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			rest, ok := strings.CutPrefix(path, "xoar/internal/")
			if !ok {
				continue
			}
			to := rest
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				to = rest[:i]
			}
			if !servicePackages[to] || to == from {
				continue
			}
			if sanctionedEdges[from+"->"+to] || sanctionedEdges["*->"+to] {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(imp.Pos()),
				Analyzer: "layering",
				Message: fmt.Sprintf("service package %s imports service package %s: shards share no channels the hypervisor has not linked (§5.6)",
					from, to),
			})
		}
	}
	return diags
}
