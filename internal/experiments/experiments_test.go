package experiments

import (
	"fmt"
	"strings"
	"testing"

	"xoar/internal/hw"
)

func findRow(t *testing.T, tbl Table, label string) Row {
	t.Helper()
	for _, r := range tbl.Rows {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("row %q not found in %s (have %d rows)", label, tbl.ID, len(tbl.Rows))
	return Row{}
}

func TestMemoryOverheadMatchesTable61(t *testing.T) {
	tbl, err := MemoryOverhead()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"xenstore-logic", "xenstore-state", "console", "pciback", "netback", "blkback", "builder", "toolstack-0"} {
		r := findRow(t, tbl, label)
		if r.Paper == 0 || r.Measured != r.Paper {
			t.Errorf("%s = %v MB, paper %v", label, r.Measured, r.Paper)
		}
	}
	total := findRow(t, tbl, "total (full config)")
	if total.Measured != 896 {
		t.Errorf("full-config shard memory = %v, want 896", total.Measured)
	}
	minimal := findRow(t, tbl, "total (minimal config)")
	if minimal.Measured != 512 {
		t.Errorf("minimal-config shard memory = %v, want 512", minimal.Measured)
	}
}

func TestBootTimeMatchesTable62(t *testing.T) {
	tbl, err := BootTime()
	if err != nil {
		t.Fatal(err)
	}
	cs := findRow(t, tbl, "console speedup")
	if cs.Measured < 1.3 || cs.Measured > 1.7 {
		t.Errorf("console speedup = %.2f, paper 1.5", cs.Measured)
	}
	ps := findRow(t, tbl, "ping speedup")
	if ps.Measured < 1.05 || ps.Measured > 1.3 {
		t.Errorf("ping speedup = %.2f, paper 1.15", ps.Measured)
	}
	ser := findRow(t, tbl, "xoar full boot (serialized, ablation)")
	par := findRow(t, tbl, "xoar full boot (parallel)")
	if ser.Measured <= par.Measured {
		t.Errorf("serialized boot %.1fs not slower than parallel %.1fs", ser.Measured, par.Measured)
	}
}

func TestPostmarkParityAcrossProfiles(t *testing.T) {
	tbl, err := Postmark(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Compare dom0/xoar pairs.
	for i := 0; i < len(tbl.Rows); i += 2 {
		d, x := tbl.Rows[i], tbl.Rows[i+1]
		ratio := x.Measured / d.Measured
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s vs %s: ratio %.3f", d.Label, x.Label, ratio)
		}
	}
}

func TestWgetShapes(t *testing.T) {
	tbl, err := Wget(0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Network-only: near line rate on both profiles.
	nullD := findRow(t, tbl, "/dev/null (512MB) dom0")
	nullX := findRow(t, tbl, "/dev/null (512MB) xoar")
	if nullD.Measured < 100 || nullX.Measured < 100 {
		t.Errorf("null throughput dom0=%.1f xoar=%.1f", nullD.Measured, nullX.Measured)
	}
	// Combined net->disk: Xoar ahead by a few percent (paper: +6.5%).
	diskD := findRow(t, tbl, "disk (2GB) dom0")
	diskX := findRow(t, tbl, "disk (2GB) xoar")
	gain := diskX.Measured / diskD.Measured
	if gain < 1.02 || gain > 1.15 {
		t.Errorf("combined-path xoar/dom0 = %.3f (xoar %.1f, dom0 %.1f), paper ~1.065",
			gain, diskX.Measured, diskD.Measured)
	}
}

func TestRestartThroughputShape(t *testing.T) {
	tbl, err := RestartThroughput(0.25, []int{1, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	base := findRow(t, tbl, "baseline (no restarts)")
	if base.Measured < 100 {
		t.Fatalf("baseline = %.1f", base.Measured)
	}
	get := func(iv int, fast bool) float64 {
		mode := "slow (260ms)"
		if fast {
			mode = "fast (140ms)"
		}
		return findRow(t, tbl, fmt.Sprintf("%s @ %ds", mode, iv)).Measured
	}
	slow1, slow10 := get(1, false), get(10, false)
	fast1, fast10 := get(1, true), get(10, true)
	// Monotone in interval.
	if slow1 >= slow10 || fast1 >= fast10 {
		t.Errorf("throughput not increasing with interval: slow %.1f/%.1f fast %.1f/%.1f",
			slow1, slow10, fast1, fast10)
	}
	// Paper: ~58% drop at 1s slow; ~8% at 10s.
	drop1 := 1 - slow1/base.Measured
	drop10 := 1 - slow10/base.Measured
	if drop1 < 0.40 || drop1 > 0.75 {
		t.Errorf("1s slow drop = %.0f%%, paper ~58%%", drop1*100)
	}
	if drop10 < 0.02 || drop10 > 0.15 {
		t.Errorf("10s slow drop = %.0f%%, paper ~8%%", drop10*100)
	}
	// Fast beats slow at every interval.
	if fast1 <= slow1 {
		t.Errorf("fast (%.1f) not better than slow (%.1f) at 1s", fast1, slow1)
	}
}

func TestKernelBuildShape(t *testing.T) {
	tbl, err := KernelBuild(0.1)
	if err != nil {
		t.Fatal(err)
	}
	d0l := findRow(t, tbl, "dom0 (local)")
	xl := findRow(t, tbl, "xoar (local)")
	ratio := xl.Measured / d0l.Measured
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("local build xoar/dom0 = %.3f, paper <1%% overhead", ratio)
	}
	nfs := findRow(t, tbl, "xoar (nfs)")
	if nfs.Measured <= xl.Measured {
		t.Errorf("nfs (%.1fs) not slower than local (%.1fs)", nfs.Measured, xl.Measured)
	}
	r5 := findRow(t, tbl, "xoar (nfs, restarts 5s)")
	if r5.Measured < nfs.Measured {
		t.Errorf("restarts made the build faster: %.1f vs %.1f", r5.Measured, nfs.Measured)
	}
}

func TestApacheShape(t *testing.T) {
	tbl, err := Apache(0.2)
	if err != nil {
		t.Fatal(err)
	}
	d0 := findRow(t, tbl, "dom0 throughput")
	x := findRow(t, tbl, "xoar throughput")
	if d0.Measured < 2500 || d0.Measured > 4200 {
		t.Errorf("dom0 throughput = %.0f, paper 3231", d0.Measured)
	}
	ratio := x.Measured / d0.Measured
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("xoar/dom0 = %.3f, paper 0.985", ratio)
	}
	r1 := findRow(t, tbl, "restarts 1s throughput")
	if r1.Measured > 0.8*d0.Measured {
		t.Errorf("1s restarts throughput %.0f too high vs %.0f", r1.Measured, d0.Measured)
	}
	// Ordering: dom0 ≈ xoar ≥ 10s ≥ 5s > 1s. (At reduced scale the run can
	// be shorter than the 10s interval, leaving that row at baseline.)
	r10 := findRow(t, tbl, "restarts 10s throughput")
	r5 := findRow(t, tbl, "restarts 5s throughput")
	if !(x.Measured >= r10.Measured && r10.Measured >= r5.Measured && r5.Measured > r1.Measured) {
		t.Errorf("ordering violated: %.0f %.0f %.0f %.0f", x.Measured, r10.Measured, r5.Measured, r1.Measured)
	}
	// Tail latencies under restarts reach far beyond the 8-9ms baseline.
	maxLat := findRow(t, tbl, "restarts 1s max latency")
	if maxLat.Measured < 800 {
		t.Errorf("1s restarts max latency = %.0fms, paper ~7000ms", maxLat.Measured)
	}
	base := findRow(t, tbl, "dom0 max latency")
	if base.Measured > 30 {
		t.Errorf("unperturbed max latency = %.1fms, paper 8-9ms", base.Measured)
	}
}

func TestSecurityTables(t *testing.T) {
	tcb, err := TCBSize()
	if err != nil {
		t.Fatal(err)
	}
	x := findRow(t, tcb, "xoar source LoC")
	d := findRow(t, tcb, "dom0 source LoC")
	if d.Measured/x.Measured < 100 {
		t.Errorf("TCB reduction %0.fx", d.Measured/x.Measured)
	}
	atk, err := KnownAttacks()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"xoar contained", "xoar limited-to-sharers", "xoar whole-host"} {
		r := findRow(t, atk, label)
		if r.Measured != r.Paper {
			t.Errorf("%s = %v, paper %v", label, r.Measured, r.Paper)
		}
	}
}

func TestMetricsSnapshotCoversHotPaths(t *testing.T) {
	snap, err := MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	hist := func(name string) (h struct {
		Count uint64
		Sum   float64
	}) {
		t.Helper()
		for _, s := range snap.Histograms {
			if s.Name == name {
				return struct {
					Count uint64
					Sum   float64
				}{s.Count, s.Sum}
			}
		}
		t.Fatalf("histogram %q missing (have %d)", name, len(snap.Histograms))
		return
	}
	// The Xoar boot pushes netback, blkback and the toolstack through the
	// Builder's queue: build latency and queue depth must have samples.
	if h := hist("builder_build_latency_ms"); h.Count == 0 || h.Sum <= 0 {
		t.Errorf("builder_build_latency_ms empty: %+v", h)
	}
	if h := hist("builder_queue_depth"); h.Count == 0 {
		t.Errorf("builder_queue_depth empty: %+v", h)
	}
	// The fetch workload exercises both driver rings and XenStore.
	if h := hist(`netback_ring_rtt_us{dir=rx}`); h.Count == 0 {
		t.Errorf("netback rx ring histogram empty: %+v", h)
	}
	if h := hist(`blkback_ring_rtt_us{op=write}`); h.Count == 0 {
		t.Errorf("blkback write ring histogram empty: %+v", h)
	}
	var xsOps int64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "xenstore_requests_total") {
			xsOps += c.Value
		}
	}
	if xsOps == 0 {
		t.Error("no xenstore requests counted")
	}
	// Boot and build spans are present and closed.
	if len(snap.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, sp := range snap.Spans {
		if sp.Open {
			t.Errorf("span %s[%s] left open", sp.Domain, sp.Name)
		}
	}
}

func TestTelemetryTableRenders(t *testing.T) {
	tbl, err := Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty telemetry table")
	}
	r := findRow(t, tbl, "builder_builds_total")
	if r.Measured <= 0 {
		t.Errorf("builder_builds_total = %v", r.Measured)
	}
	if !strings.Contains(Render(tbl), "telemetry") {
		t.Error("render lost the table id")
	}
}

func TestRenderers(t *testing.T) {
	tbl := Table{
		ID: "t", Title: "demo",
		Rows:  []Row{{Label: "a", Measured: 12.34, Paper: 12, Unit: "MB/s"}, {Label: "b", Measured: 3, Unit: "s"}},
		Notes: []string{"a note"},
	}
	txt := Render(tbl)
	if !strings.Contains(txt, "paper: 12") || !strings.Contains(txt, "a note") {
		t.Fatalf("render = %q", txt)
	}
	md := Markdown(tbl)
	if !strings.Contains(md, "| a | 12.3 MB/s | 12 MB/s |") {
		t.Fatalf("markdown = %q", md)
	}
}

func TestAblationsTable(t *testing.T) {
	tbl, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	par := findRow(t, tbl, "full boot, parallel (Bootstrapper)")
	ser := findRow(t, tbl, "full boot, serialized (ablated)")
	if ser.Measured <= par.Measured {
		t.Errorf("serialized %.1fs not slower than parallel %.1fs", ser.Measured, par.Measured)
	}
	res := findRow(t, tbl, "control domains, PCIBack resident")
	des := findRow(t, tbl, "control domains, PCIBack destroyed (§5.3)")
	if des.Measured != res.Measured-1 {
		t.Errorf("destroy ablation: %v vs %v", des.Measured, res.Measured)
	}
	slow := findRow(t, tbl, "NetBack restart downtime, renegotiate (slow)")
	fast := findRow(t, tbl, "NetBack restart downtime, recovery box (fast)")
	if slow.Measured < 255 || slow.Measured > 275 || fast.Measured < 135 || fast.Measured > 155 {
		t.Errorf("downtimes slow=%.0f fast=%.0f, paper 260/140", slow.Measured, fast.Measured)
	}
	intact := findRow(t, tbl, "contents intact after Logic restarts (1=yes)")
	if intact.Measured != 1 {
		t.Error("XenStore split ablation lost contents")
	}
	dep := findRow(t, tbl, "hypercalls deprivilegeable (§7.1)")
	if dep.Measured < 5 {
		t.Errorf("deprivilegeable calls = %v", dep.Measured)
	}
}

func TestBootPipelineBeatsSerial(t *testing.T) {
	serial, pipelined, err := BootPipelineMakespans(4)
	if err != nil {
		t.Fatal(err)
	}
	if pipelined >= serial {
		t.Fatalf("pipelined makespan %v not below serial %v", pipelined, serial)
	}
	tbl, err := BootPipeline(4)
	if err != nil {
		t.Fatal(err)
	}
	sp := findRow(t, tbl, "speedup")
	if sp.Measured <= 1.0 {
		t.Errorf("speedup = %v, want > 1", sp.Measured)
	}
	saved := findRow(t, tbl, "construct overlap reclaimed")
	if saved.Measured <= 0 {
		t.Errorf("reclaimed overlap = %vms, want > 0", saved.Measured)
	}
}

func TestTraceJSONContainsBatchSpans(t *testing.T) {
	data, err := TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"traceEvents"`) || !strings.Contains(s, "build-batch[") {
		t.Fatalf("trace export missing batch spans: %.200s", s)
	}
	if !strings.Contains(s, "construct:trace-0") || !strings.Contains(s, "boot:trace-0") {
		t.Fatal("trace export missing per-domain pipeline children")
	}
}

func TestSaturationShardWithinNoise(t *testing.T) {
	tbl, err := Saturation(0.05, []hw.NICModel{hw.NICModel10G})
	if err != nil {
		t.Fatal(err)
	}
	// Two profiles plus the overhead row.
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	over := findRow(t, tbl, "ixgbe shard overhead")
	if over.Measured > 1.0 {
		t.Fatalf("10G shard overhead %.2f%%, want within noise (<=1%%)", over.Measured)
	}
	xoar := findRow(t, tbl, "ixgbe xoar")
	// 10GbE payload line rate is ~1170 MB/s; the shard must saturate it.
	if xoar.Measured < 1100 {
		t.Fatalf("xoar throughput %.1f MB/s, want near line rate", xoar.Measured)
	}
}

func TestTxBatchingAmortizes(t *testing.T) {
	tbl, err := TxBatching(120)
	if err != nil {
		t.Fatal(err)
	}
	sup := findRow(t, tbl, "descs/wakeup (suppressed)")
	abl := findRow(t, tbl, "descs/wakeup (always-notify)")
	if sup.Measured < 4*abl.Measured {
		t.Fatalf("suppressed %.1f vs ablated %.1f descs/wakeup, want >= 4x", sup.Measured, abl.Measured)
	}
}
