// Command benchdiff is the CI benchmark-regression gate: it parses `go test
// -bench` output, compares the custom metrics the benchmarks report (boot
// makespans, Table 6.1 totals, speedups — all deterministic under the sim's
// fixed seeds) against a checked-in baseline, and exits non-zero when a
// gated metric moves in its "worse" direction beyond tolerance.
//
//	go test -run '^$' -bench 'Pipeline|Table6' -benchtime=1x . > bench.out
//	benchdiff -baseline BENCH_baseline.json bench.out
//	benchdiff -baseline BENCH_baseline.json -update bench.out   # refresh values
//
// Only custom metrics (b.ReportMetric units) are gated — ns/op depends on
// host load and is deliberately ignored. The exception is allocs/op (exact
// under -benchmem): with -hotpath HOTPATH.json, every hot root that declares
// a bench= binding must measure exactly its static allocs/op budget, in both
// directions — a measured alloc the analyzer missed is an analyzer gap, and
// a static budget above the measurement is stale slack. Either one fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"xoar/internal/xoarlint"
)

// MetricGate is one gated metric of one benchmark.
type MetricGate struct {
	// Bench is the benchmark name as printed (without the -N GOMAXPROCS
	// suffix), e.g. "BenchmarkBootPipeline".
	Bench string `json:"bench"`
	// Metric is the custom unit reported via b.ReportMetric, e.g. "s-pipelined".
	Metric string `json:"metric"`
	// Value is the baseline.
	Value float64 `json:"value"`
	// Worse names the regression direction: "higher" (latency-like),
	// "lower" (throughput/speedup-like), or "either" (pinned value).
	Worse string `json:"worse"`
	// Tolerance overrides the file-level tolerance when > 0.
	Tolerance float64 `json:"tolerance,omitempty"`
	// AbsTolerance widens the band by an absolute amount in the metric's own
	// unit. It is the only way to gate a zero baseline (allocs/op = 0), where
	// a relative band is degenerate: any measured value would fail — or with
	// worse="higher", any value would pass a baseline of exactly 0 only.
	AbsTolerance float64 `json:"abs_tolerance,omitempty"`
	// Note is a human-readable reminder of what the metric means.
	Note string `json:"note,omitempty"`
}

// Baseline is the checked-in gate file.
type Baseline struct {
	// Tolerance is the default relative tolerance band (0.05 = 5%).
	Tolerance float64      `json:"tolerance"`
	Metrics   []MetricGate `json:"metrics"`
}

// parseBench extracts benchmark -> metric unit -> value from `go test
// -bench` output. Result lines look like:
//
//	BenchmarkBootPipeline   1   1080531 ns/op   104.0 s-pipelined   1.001 x-speedup
//
// i.e. name, iteration count, then value/unit pairs.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the GOMAXPROCS suffix (BenchmarkFoo-8 -> BenchmarkFoo).
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. "BenchmarkFoo\t--- FAIL")
		}
		metrics := out[name]
		if metrics == nil {
			metrics = make(map[string]float64)
			out[name] = metrics
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: %s: bad value %q", name, fields[i])
			}
			metrics[fields[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// check compares one gate against a measured value and returns a non-empty
// complaint on regression.
func check(g MetricGate, got, defaultTol float64) string {
	tol := g.Tolerance
	if tol <= 0 {
		tol = defaultTol
	}
	band := tol*math.Abs(g.Value) + g.AbsTolerance
	switch g.Worse {
	case "higher":
		if got > g.Value+band {
			return fmt.Sprintf("%.6g exceeds baseline %.6g by more than the %.6g band", got, g.Value, band)
		}
	case "lower":
		if got < g.Value-band {
			return fmt.Sprintf("%.6g falls below baseline %.6g by more than the %.6g band", got, g.Value, band)
		}
	case "either":
		if math.Abs(got-g.Value) > band {
			return fmt.Sprintf("%.6g deviates from pinned baseline %.6g by more than the %.6g band", got, g.Value, band)
		}
	default:
		return fmt.Sprintf("bad gate direction %q (want higher/lower/either)", g.Worse)
	}
	return ""
}

// checkHotPath cross-checks the static allocs/op budgets in the hot-path
// artifact against the measured -benchmem allocs/op of each root's declared
// benchmark. Exact equality is required in both directions; a root whose
// bench metric is absent from the run fails (the gate must not silently
// vanish with the benchmark). Returns the number of failures.
func checkHotPath(stdout, stderr io.Writer, path string, results map[string]map[string]float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	hp, err := xoarlint.DecodeHotPath(raw)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	failures := 0
	checked := 0
	for _, root := range hp.Roots {
		if root.Bench == "" {
			continue
		}
		checked++
		got, ok := results[root.Bench]["allocs/op"]
		if !ok {
			fmt.Fprintf(stdout, "FAIL hotpath %s: %s reported no allocs/op (run with -benchmem)\n", root.Root, root.Bench)
			failures++
			continue
		}
		if got != float64(root.AllocsPerOp) {
			dir := "static analysis missed an allocation"
			if got < float64(root.AllocsPerOp) {
				dir = "static budget is stale slack"
			}
			fmt.Fprintf(stdout, "FAIL hotpath %s: %s measured %g allocs/op, static budget %d (%s)\n",
				root.Root, root.Bench, got, root.AllocsPerOp, dir)
			failures++
			continue
		}
		fmt.Fprintf(stdout, "  ok hotpath %s: %s allocs/op = %d (measured == static)\n", root.Root, root.Bench, root.AllocsPerOp)
	}
	if checked == 0 {
		fmt.Fprintf(stdout, "FAIL hotpath: no root in %s declares a bench binding\n", path)
		failures++
	}
	return failures
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams passed in; it returns
// the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "checked-in baseline gate file")
	update := fs.Bool("update", false, "rewrite the baseline's values from this run instead of gating")
	hotpathPath := fs.String("hotpath", "", "hot-path artifact (HOTPATH.json); cross-check static allocs/op budgets against measured -benchmem values")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	} else if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: benchdiff [-baseline file] [-update] [bench-output-file]")
		return 2
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s: %v\n", *baselinePath, err)
		return 2
	}
	if base.Tolerance <= 0 {
		base.Tolerance = 0.05
	}

	results, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark results in input")
		return 2
	}

	failures := 0
	for i, g := range base.Metrics {
		got, ok := results[g.Bench][g.Metric]
		if !ok {
			// A gated metric that vanished is a regression, not a skip —
			// otherwise deleting a benchmark silently drops its gate.
			fmt.Fprintf(stdout, "FAIL %s %s: metric missing from run\n", g.Bench, g.Metric)
			failures++
			continue
		}
		if *update {
			base.Metrics[i].Value = got
			fmt.Fprintf(stdout, "  ok %s %s: baseline <- %.6g\n", g.Bench, g.Metric, got)
			continue
		}
		if msg := check(g, got, base.Tolerance); msg != "" {
			fmt.Fprintf(stdout, "FAIL %s %s: %s\n", g.Bench, g.Metric, msg)
			failures++
		} else {
			fmt.Fprintf(stdout, "  ok %s %s: %.6g (baseline %.6g, worse=%s)\n", g.Bench, g.Metric, got, g.Value, g.Worse)
		}
	}

	if *hotpathPath != "" && !*update {
		failures += checkHotPath(stdout, stderr, *hotpathPath, results)
	}

	if *update {
		// The notes are written as typed: no HTML escaping of '<' or '>'.
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(base); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, out.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d gated metric(s) regressed vs %s\n", failures, *baselinePath)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d gated metric(s) within tolerance\n", len(base.Metrics))
	return 0
}
