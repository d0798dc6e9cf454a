package xoarlint

import "go/ast"

// gohygiene keeps platform concurrency inside the simulator: components
// under internal/ must spawn workers through sim.Env.Spawn (cooperative
// processes on the deterministic scheduler), never with a bare go
// statement. A raw goroutine runs on the wall-clock scheduler — it races
// the sim's single-runner invariant, is invisible to Env.Shutdown, and
// makes event ordering (and therefore every measured table) depend on the
// host. Every long-lived worker on the platform — the Builder's serve loop,
// the driver pumps, the restart engine's timers — is a sim.Proc, and
// this pass turns that from convention into a build-time invariant.
//
// internal/sim is covered too: its scheduler runs each Proc as an iter.Pull
// coroutine and has no go statement of its own. Test files are exempt:
// tests legitimately hammer the thread-safe layers (telemetry, fault
// injection) from real goroutines under -race.

func init() {
	Register(&Analyzer{
		Name: "gohygiene",
		Doc:  "internal/ packages must spawn concurrency via sim.Env.Spawn, not bare go statements (_test.go files exempt)",
		Run:  runGohygiene,
	})
}

func runGohygiene(p *Package) []Diagnostic {
	if !p.Internal() {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.Test[f] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(g.Pos()),
				Analyzer: "gohygiene",
				Message:  "bare go statement bypasses the deterministic scheduler; spawn a sim process via sim.Env.Spawn",
			})
			return true
		})
	}
	return diags
}
