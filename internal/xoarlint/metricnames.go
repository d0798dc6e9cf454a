package xoarlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// metricnames enforces the DESIGN.md §8 telemetry contract at every
// instrumentation site. The metric namespace is an API between components
// and exporters: names follow component_quantity_unit snake_case, the unit
// suffix is canonical (exporters derive display units from it), counters
// end in _total, and labels stay bounded — keys are literals and values
// never come from fmt.Sprintf/strconv, the two ways per-domain identifiers
// leak into label values and blow up registry cardinality. The "host" label
// key is reserved: each booted host records into its own registry, so a
// series' host is the registry it lands in, and instrumentation sites must
// stay host-unaware.
//
// Names must also be literal at the call site: a variable name means the
// series set is no longer knowable at wiring time, which defeats both this
// check and SetMetrics-style handle pre-resolution.

const telemetryPath = "xoar/internal/telemetry"

// metricNameRE: lowercase snake_case with at least two segments.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// metricUnitAliases maps unit-suffix spellings to the canonical form.
var metricUnitAliases = map[string]string{
	"milliseconds": "ms", "millis": "ms", "msec": "ms", "msecs": "ms",
	"microseconds": "us", "micros": "us", "usec": "us", "usecs": "us",
	"nanoseconds": "ns", "nanos": "ns", "nsec": "ns", "nsecs": "ns",
	"seconds": "ms", "secs": "ms", "sec": "ms",
	"byte": "bytes", "kb": "bytes", "kib": "bytes", "mib": "mb",
}

// metricLabelKeyRE: short lowercase identifiers ("op", "dir", "class").
var metricLabelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

func init() {
	Register(&Analyzer{
		Name: "metricnames",
		Doc:  "telemetry call sites use literal component_quantity_unit names and bounded label vocabularies (DESIGN.md §8)",
		Run:  runMetricnames,
	})
}

func runMetricnames(p *Package) []Diagnostic {
	if p.Path == telemetryPath {
		return nil
	}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos:      p.Fset.Position(pos),
			Analyzer: "metricnames",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range p.Files {
		if !importsPath(f, telemetryPath) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind := sel.Sel.Name
			switch kind {
			case "Counter", "Gauge", "Histogram":
			default:
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			name, lit := stringLit(call.Args[0])
			if !lit {
				report(call.Args[0].Pos(), "%s metric name must be a string literal — a dynamic name hides the series set from wiring-time review (DESIGN.md §8)", kind)
				return true
			}
			checkMetricName(report, call.Args[0].Pos(), kind, name)
			labels := call.Args[1:]
			if kind == "Histogram" && len(call.Args) > 1 {
				labels = call.Args[2:] // skip the buckets argument
			}
			for _, arg := range labels {
				checkLabelArg(report, arg)
			}
			return true
		})
	}
	return diags
}

func checkMetricName(report func(token.Pos, string, ...interface{}), pos token.Pos, kind, name string) {
	if !metricNameRE.MatchString(name) {
		report(pos, "metric name %q is not component_quantity_unit snake_case (DESIGN.md §8)", name)
		return
	}
	segs := strings.Split(name, "_")
	last := segs[len(segs)-1]
	if canon, bad := metricUnitAliases[last]; bad {
		report(pos, "metric name %q uses non-canonical unit suffix %q; use %q (DESIGN.md §8)", name, last, canon)
	}
	switch kind {
	case "Counter":
		if last != "total" {
			report(pos, "counter %q must end in _total (DESIGN.md §8)", name)
		}
	default:
		if last == "total" {
			report(pos, "%s %q must not end in _total — that suffix marks counters (DESIGN.md §8)", strings.ToLower(kind), name)
		}
	}
}

// checkLabelArg vets one label argument: a telemetry.L(key, value) call
// with a literal, well-formed key and a value that cannot be a formatted
// identifier.
func checkLabelArg(report func(token.Pos, string, ...interface{}), arg ast.Expr) {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "L" || len(call.Args) != 2 {
		return
	}
	key, lit := stringLit(call.Args[0])
	if !lit {
		report(call.Args[0].Pos(), "label key must be a string literal (DESIGN.md §8)")
	} else if !metricLabelKeyRE.MatchString(key) {
		report(call.Args[0].Pos(), "label key %q is not a short lowercase identifier (DESIGN.md §8)", key)
	} else if key == "host" {
		report(call.Args[0].Pos(), "label key \"host\" is reserved: each host records into its own registry, so a series' host is its registry — instrumentation sites stay host-unaware (DESIGN.md §8)")
	}
	if vc, ok := call.Args[1].(*ast.CallExpr); ok {
		if vs, ok := vc.Fun.(*ast.SelectorExpr); ok {
			if x, ok := vs.X.(*ast.Ident); ok && (x.Name == "fmt" || x.Name == "strconv") {
				report(call.Args[1].Pos(), "label value built with %s.%s is unbounded — label values must come from a small fixed vocabulary (DESIGN.md §8)", x.Name, vs.Sel.Name)
			}
		}
	}
}

func stringLit(e ast.Expr) (string, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == path {
			return true
		}
	}
	return false
}
