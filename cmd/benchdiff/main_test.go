package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: xoar
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable61_Memory 	       1	   3148518 ns/op	       128.0 MB-netback	       896.0 MB-total
BenchmarkTable62_Boot-8 	       1	    295511 ns/op	         1.508 x-console	         1.145 x-ping
BenchmarkBootPipeline   	       1	   1080531 ns/op	       128.7 ms-reclaimed	       104.0 s-pipelined	       104.1 s-serial	         1.001 x-speedup
PASS
ok  	xoar	0.011s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	if v := got["BenchmarkTable61_Memory"]["MB-total"]; v != 896.0 {
		t.Errorf("MB-total = %v", v)
	}
	// The -8 GOMAXPROCS suffix is stripped.
	if v := got["BenchmarkTable62_Boot"]["x-console"]; v != 1.508 {
		t.Errorf("x-console = %v (keys: %v)", v, got)
	}
	if v := got["BenchmarkBootPipeline"]["s-pipelined"]; v != 104.0 {
		t.Errorf("s-pipelined = %v", v)
	}
	// ns/op is parsed like any pair but never gated; presence is harmless.
	if v := got["BenchmarkBootPipeline"]["ns/op"]; v != 1080531 {
		t.Errorf("ns/op = %v", v)
	}
}

func TestParseBenchSkipsNonResultLines(t *testing.T) {
	got, err := parseBench(strings.NewReader("BenchmarkBroken \t--- FAIL\nnothing here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %v from non-result input", got)
	}
}

func TestCheckDirections(t *testing.T) {
	cases := []struct {
		name string
		g    MetricGate
		got  float64
		fail bool
	}{
		{"higher-ok", MetricGate{Value: 100, Worse: "higher"}, 104, false},
		{"higher-better-ok", MetricGate{Value: 100, Worse: "higher"}, 50, false},
		{"higher-regressed", MetricGate{Value: 100, Worse: "higher"}, 106, true},
		{"lower-ok", MetricGate{Value: 1.5, Worse: "lower"}, 1.46, false},
		{"lower-better-ok", MetricGate{Value: 1.5, Worse: "lower"}, 2.0, false},
		{"lower-regressed", MetricGate{Value: 1.5, Worse: "lower"}, 1.0, true},
		{"either-ok", MetricGate{Value: 896, Worse: "either"}, 900, false},
		{"either-drifted", MetricGate{Value: 896, Worse: "either"}, 1000, true},
		{"per-gate-tolerance", MetricGate{Value: 100, Worse: "higher", Tolerance: 0.5}, 140, false},
		// A zero baseline has a zero relative band: only an absolute
		// tolerance makes it gateable (allocs/op = 0).
		{"zero-baseline-exact", MetricGate{Value: 0, Worse: "higher"}, 0, false},
		{"zero-baseline-regressed", MetricGate{Value: 0, Worse: "higher"}, 1, true},
		{"abs-tolerance-ok", MetricGate{Value: 0, Worse: "higher", AbsTolerance: 0.5}, 0.4, false},
		{"abs-tolerance-regressed", MetricGate{Value: 0, Worse: "higher", AbsTolerance: 0.5}, 1, true},
		{"abs-widens-relative", MetricGate{Value: 100, Worse: "either", AbsTolerance: 10}, 114, false},
		{"bad-direction", MetricGate{Value: 1, Worse: "sideways"}, 1, true},
	}
	for _, c := range cases {
		msg := check(c.g, c.got, 0.05)
		if (msg != "") != c.fail {
			t.Errorf("%s: check = %q, want fail=%v", c.name, msg, c.fail)
		}
	}
}

// With every gated metric at its baseline value, -update must leave the
// checked-in baseline byte-identical, so a refresh shows only what moved.
func TestUpdateRoundTripsBaseline(t *testing.T) {
	want, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(want, &base); err != nil {
		t.Fatal(err)
	}
	var bench strings.Builder
	for _, g := range base.Metrics {
		fmt.Fprintf(&bench, "%s\t1\t%s %s\n", g.Bench, strconv.FormatFloat(g.Value, 'g', -1, 64), g.Metric)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", path, "-update"}, strings.NewReader(bench.String()), &stdout, &stderr); code != 0 {
		t.Fatalf("benchdiff -update exited %d: %s%s", code, stdout.String(), stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("-update rewrote line %d: %q", i+1, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("-update wrote %d lines, want %d", len(gotLines), len(wantLines))
	}
}
