package xoarlint

import (
	"fmt"
	"go/ast"
)

// simtime keeps the platform deterministic and replayable: every component
// under internal/ experiences time only through the discrete-event clock in
// internal/sim, and randomness only through the seeded sim.Env source. A
// stray time.Now or global math/rand call would make boot traces, restart
// schedules and the paper's experiment tables (§6.1) irreproducible — and
// would do so silently, only showing up as flaky numbers much later.
//
// internal/sim itself is the designated wrapper and is exempt; it owns the
// one seeded rand.Rand (constructed with rand.New, which is allowed
// everywhere — only the process-global source is banned).

// bannedCalls lists, per import path, the package-level functions that reach
// for wall-clock time or process-global randomness.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":       "use the sim clock (sim.Env.Now / sim.Proc.Now)",
		"Sleep":     "use sim.Proc.Sleep",
		"After":     "use sim.Env.After",
		"AfterFunc": "use sim.Env.After",
		"Since":     "use sim.Time.Sub on sim timestamps",
		"Until":     "use sim.Time.Sub on sim timestamps",
		"Tick":      "use sim.Env.After in a loop",
		"NewTimer":  "use sim.Env.After",
		"NewTicker": "use sim.Env.After in a loop",
	},
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "",
		"Seed": "", "Read": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "", "N": "",
	},
}

func init() {
	Register(&Analyzer{
		Name: "simtime",
		Doc:  "internal/ packages must take time and randomness from internal/sim, never the wall clock or global math/rand",
		Run:  runSimtime,
	})
}

func runSimtime(p *Package) []Diagnostic {
	if !p.Internal() || p.Path == "xoar/internal/sim" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path := p.pkgPathOf(x)
			banned, ok := bannedCalls[path]
			if !ok {
				return true
			}
			hint, ok := banned[sel.Sel.Name]
			if !ok {
				return true
			}
			msg := fmt.Sprintf("%s.%s breaks simulation determinism", x.Name, sel.Sel.Name)
			if path == "math/rand" || path == "math/rand/v2" {
				msg = fmt.Sprintf("%s.%s uses the process-global random source; draw from the seeded sim.Env.Rand()", x.Name, sel.Sel.Name)
			} else if hint != "" {
				msg += "; " + hint
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(sel.Pos()),
				Analyzer: "simtime",
				Message:  msg,
			})
			return true
		})
	}
	return diags
}
