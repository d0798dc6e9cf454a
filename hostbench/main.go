// Command hostbench measures the host time and memory the simulator spends
// producing the paper's results. The modeled-time figures themselves are
// gated by `make bench-diff` against BENCH_baseline.json; here they appear
// only as checks and as deterministic per-layer counts.
//
//	hostbench --workload web --seed 1 --seconds 6 --trace 0
//
// With --trace 0 it sets the workload up several times, then runs the timed
// phase with nothing installed and prints the end-to-end metrics. With
// --trace 1 it runs the timed phase twice on fresh set-ups, untraced and then
// with the sim scheduler hook attached, checks that both give the same
// modeled digest, prints the per-layer metrics and writes the traced run's
// spans as Chrome trace_event JSON. The last line of output is one JSON
// object; the exit code is non-zero when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct{ name, unit string }

// endToEnd are host time and host memory, measured with nothing installed
// but a clock read at each step's start and end.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"step_p50_ms", "ms"},
	{"step_p99_ms", "ms"},
	{"success_ratio", "fraction"},
}

// perLayer come from the traced run; a layer with no work in a workload
// reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"sim.events", "count"}, {"sim.spawns", "count"}, {"sim.kills", "count"},
		{"sim.virtual_s", "s"}, {"sim.host_ns_per_event", "ns"},
		{"sim.queue_peak", "count"}, {"sim.compactions", "count"}, {"sim.shutdown_ms", "ms"},
		{"sim.callback_host_ms", "ms"}, {"sim.unclassified_host_ms", "ms"},
	}
	for _, m := range modules {
		ms = append(ms, metric{m + ".host_ms", "ms"}, metric{m + ".resumes", "count"})
	}
	return append(ms,
		metric{"netdrv.tx_descs", "count"}, metric{"netdrv.tx_notifies", "count"},
		metric{"netdrv.rx_descs", "count"}, metric{"netdrv.rx_notifies", "count"},
		metric{"netdrv.tx_descs_per_notify", "ratio"}, metric{"netdrv.rx_descs_per_notify", "ratio"},
		metric{"blkdrv.req_descs", "count"}, metric{"blkdrv.req_notifies", "count"},
		metric{"blkdrv.resp_notifies", "count"}, metric{"blkdrv.req_descs_per_notify", "ratio"},
		metric{"guest.requests", "count"}, metric{"guest.errors", "count"}, metric{"guest.bytes", "bytes"},
		metric{"guest.retransmits", "count"}, metric{"guest.call_ms_p50", "ms"}, metric{"guest.call_ms_p99", "ms"},
		metric{"toolstack.destroy_us_p50", "us"}, metric{"toolstack.destroy_us_p99", "us"},
		metric{"xenstore.mutations", "count"}, metric{"cluster.launched", "count"},
		metric{"cluster.failed", "count"}, metric{"cluster.peak_resident", "count"},
		metric{"hv.live_domains_end", "count"},
		metric{"audit.records_per_exec", "count"}, metric{"audit.verify_us", "us"},
		metric{"attack.calls", "count"}, metric{"attack.denied", "count"}, metric{"attack.denied_ratio", "fraction"},
		metric{"attack.findings", "count"}, metric{"attack.run_ms", "ms"}, metric{"hv.denied_calls", "count"},
		metric{"boot.harness_ms", "ms"}, metric{"snapshot.restarts", "count"},
		metric{"go.gc_cycles", "count"}, metric{"go.gc_cpu_s", "s"}, metric{"go.mallocs", "count"},
		metric{"go.heap_peak_mb", "MB"},
		metric{"trace_overhead_pct", "%"},
	)
}()

// setupRuns is how often a --trace 0 run sets the workload up; setup_s is
// the median, since one bare set-up varies 2-3x across fresh processes.
const setupRuns = 5

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	// The sim runs one process at a time, so a second P adds only
	// cross-core goroutine wake-ups, which made runs slower and noisier on
	// the 2-vCPU reference box; with one P the GC runs inline and wall_s
	// and cpu_s both count it.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: web, bulk-disk, fleet-churn or fuzz-exec")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 6, "run length on the reference box; sets the amount of work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", ".bench_build", "directory for the traced run's Chrome trace")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	units := max(1, int(math.Round(w.unitsPerSec*float64(*seconds))))

	var rep report
	var err error
	if *trace == 0 {
		rep, err = measure(w, *seed, units)
	} else {
		path := filepath.Join(*spansDir, fmt.Sprintf("hostbench-%s-seed%d.trace.json", w.name, *seed))
		rep, err = traced(w, *seed, units, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		fmt.Printf("%-28s %14.6g %s\n", m.name, rep.Metrics[m.name].Value, m.unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// fill sets every metric of list in the report, 0 where m has no value.
func fill(rep *report, list []metric, m map[string]float64) {
	rep.Metrics = map[string]value{}
	for _, x := range list {
		rep.Metrics[x.name] = value{m[x.name], x.unit}
	}
}

// timed runs the timed phase, bracketed by host snapshots.
func timed(p platform, tr *tracer) (outcome, usage, usage) {
	runtime.GC() // start every timed phase from the same collected heap
	u0 := readUsage()
	o := p.run(tr)
	return o, u0, readUsage()
}

// verdict reports the checks and fills the report's counts.
func verdict(rep *report, outs ...outcome) {
	rep.Correct = true
	for _, o := range outs {
		for _, c := range o.checks {
			fmt.Fprintln(os.Stderr, "check failed:", c)
			rep.Correct = false
		}
	}
	rep.Attempted, rep.Failed = outs[0].attempted, outs[0].failed
}

func measure(w benchWorkload, seed int64, units int) (report, error) {
	var setups []float64
	var p platform
	for i := 0; i < setupRuns; i++ {
		if p != nil {
			p.close()
		}
		start := time.Now()
		var err error
		if p, err = w.setup(seed, units); err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o, u0, u1 := timed(p, nil)
	rss, err := peakRSSMB()
	p.close()
	if err != nil {
		return report{}, fmt.Errorf("peak RSS: %w", err)
	}

	var rep report
	verdict(&rep, o)
	fmt.Printf("%s: %d %s, %d step samples, %d ops attempted, %d failed\n",
		w.name, units, w.unit, len(o.steps), o.attempted, o.failed)
	fill(&rep, endToEnd, map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        u1.at.Sub(u0.at).Seconds(),
		"cpu_s":         (u1.cpu - u0.cpu).Seconds(),
		"alloc_mb":      float64(u1.allocBytes-u0.allocBytes) / 1e6,
		"peak_rss_mb":   rss,
		"step_p50_ms":   percentile(o.steps, 50),
		"step_p99_ms":   percentile(o.steps, 99),
		"success_ratio": ratio(int64(o.attempted-o.failed), int64(o.attempted)),
	})
	return rep, nil
}

func traced(w benchWorkload, seed int64, units int, spansPath string) (report, error) {
	p, err := w.setup(seed, units)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	plain, u0, u1 := timed(p, nil)
	p.close()
	if p, err = w.setup(seed, units); err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	tr := newTracer()
	o, t0, t1 := timed(p, tr)
	shut := tr.start("shutdown", "sim", 0, 0)
	p.close()
	shutdownMs := shut.stop()
	tr.returned()

	var rep report
	verdict(&rep, plain, o)
	if plain.digest != o.digest {
		fmt.Fprintf(os.Stderr, "check failed: traced digest %+v differs from untraced %+v\n", o.digest, plain.digest)
		rep.Correct = false
	}
	if len(tr.unassigned) > 0 {
		fmt.Fprintf(os.Stderr, "processes outside the module table: %s\n", strings.Join(sortedKeys(tr.unassigned), " "))
	}

	m := map[string]float64{}
	for k, v := range o.layer {
		m[k] = v
	}
	var sliced int64
	for _, ns := range tr.hostNs {
		sliced += ns
	}
	m["sim.events"] = float64(tr.events)
	m["sim.spawns"] = float64(tr.spawns)
	m["sim.kills"] = float64(tr.kills)
	m["sim.virtual_s"] = float64(o.digest.VirtualNs) / 1e9
	m["sim.host_ns_per_event"] = ratio(sliced, tr.events)
	m["sim.queue_peak"] = float64(tr.queuePeak)
	if _, ok := o.layer["sim.shutdown_ms"]; !ok {
		m["sim.shutdown_ms"] = shutdownMs
	}
	m["sim.callback_host_ms"] = float64(tr.hostNs[bucketCallback]) / 1e6
	m["sim.unclassified_host_ms"] = float64(tr.hostNs[bucketUnclassified]) / 1e6
	for i, mod := range modules {
		m[mod+".host_ms"] = float64(tr.hostNs[i]) / 1e6
		m[mod+".resumes"] = float64(tr.resumes[i])
	}
	// The runtime layer is read at the untraced phase's boundaries only. The
	// heap goal is the size the heap grows to before the next collection, so
	// it stands for the phase's peak heap without sampling inside the phase.
	m["go.gc_cycles"] = float64(u1.gcCycles - u0.gcCycles)
	m["go.gc_cpu_s"] = u1.gcCPU - u0.gcCPU
	m["go.mallocs"] = float64(u1.mallocs - u0.mallocs)
	m["go.heap_peak_mb"] = float64(max(u0.heapGoal, u1.heapGoal)) / 1e6
	plainWall := u1.at.Sub(u0.at).Seconds()
	tracedWall := t1.at.Sub(t0.at).Seconds() - o.probeMs/1e3
	m["trace_overhead_pct"] = (tracedWall/plainWall - 1) * 100
	fill(&rep, perLayer, m)
	fmt.Printf("%s: traced phase %.3fs, untraced %.3fs, %d events, slices cover %.1f%% of the traced phase\n",
		w.name, tracedWall, plainWall, tr.events, 100*float64(sliced)/1e9/tracedWall)

	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return report{}, err
	}
	if err := tr.writeChrome(spansPath); err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)
	return rep, nil
}

func sortedKeys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
