package main

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"time"

	"xoar/internal/sim"
	"xoar/internal/telemetry"
)

// processModules maps every sim process name the four workloads spawn to the
// module whose code the process runs. A pattern ending in "*" matches by
// prefix; any other pattern matches the whole name. The benchmark's own
// load processes are named after the module they call into ("guest-http",
// "guest-fetch", "workload-churn"), so they fall under the same rows.
var processModules = []struct{ pattern, module string }{
	{"netback-rx-*", "netdrv"},
	{"netback-tx-*", "netdrv"},
	{"blkback-*", "blkdrv"},
	{"xenstored-*", "xenstore"},
	{"builder-*", "builder"},
	{"restart-timer-*", "snapshot"},
	{"attack-mr", "snapshot"},
	{"console-*", "consolemgr"},
	{"httpd-*", "guest"},
	{"ab-client-*", "guest"},
	{"wget-recv", "guest"},
	{"guest-*", "guest"},
	{"fn-*", "workload"},
	{"workload-*", "workload"},
	{"storm-*", "cluster"},
	{"cluster-*", "cluster"},
	{"attack-seq", "attack"},
	{"boot-*", "boot"},
}

// modules are the layers whose processes' self time the traced run reports,
// in output order.
var modules = []string{
	"netdrv", "blkdrv", "xenstore", "builder", "snapshot", "consolemgr",
	"guest", "workload", "cluster", "attack", "boot",
}

// Slice buckets past the modules: After callbacks run on the scheduler with
// no owning process, and names the table misses are kept apart so a renamed
// process shows up instead of inflating a module.
var (
	bucketCallback     = len(modules)
	bucketUnclassified = len(modules) + 1
)

// moduleOf returns the module a process name belongs to, or "" when the
// table does not cover it.
func moduleOf(proc string) string {
	for _, e := range processModules {
		if prefix, ok := strings.CutSuffix(e.pattern, "*"); ok {
			if strings.HasPrefix(proc, prefix) {
				return e.module
			}
		} else if proc == e.pattern {
			return e.module
		}
	}
	return ""
}

// span is one timed call from the benchmark into a public entry point.
type span struct {
	name   string
	track  string // module the call enters
	op     int    // operation id shared by the spans of one operation
	parent int    // 1-based index of the enclosing span, 0 for none
	start  int64  // host ns since the tracer's base
	end    int64
}

// tracer charges host time to modules through the sim scheduler hook. A
// slice opens at each resume or callback and closes at the next one, or when
// control returns to the benchmark; spawn and kill are emitted by the
// running process and do not close its slice.
type tracer struct {
	base time.Time
	env  *sim.Env

	open       bool
	cur        int
	sliceStart int64

	hostNs  []int64 // per module, then callback and unclassified buckets
	resumes []int64

	events, spawns, kills int64
	queuePeak             int

	classes    map[string]int
	unassigned map[string]bool

	spans []span
}

func newTracer() *tracer {
	n := len(modules) + 2
	return &tracer{
		base:       time.Now(),
		hostNs:     make([]int64, n),
		resumes:    make([]int64, n),
		classes:    make(map[string]int),
		unassigned: make(map[string]bool),
	}
}

// now is host nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// attach installs the hook on env.
func (t *tracer) attach(env *sim.Env) {
	t.env = env
	env.SetTrace(t.hook)
}

func (t *tracer) hook(ev sim.TraceEvent) {
	switch ev.Kind {
	case "spawn":
		t.spawns++
		t.class(ev.Proc)
		return
	case "kill":
		t.kills++
		return
	}
	now := t.now()
	if t.open {
		t.hostNs[t.cur] += now - t.sliceStart
	}
	t.events++
	if q := t.env.QueueLen(); q > t.queuePeak {
		t.queuePeak = q
	}
	if ev.Kind == "callback" {
		t.cur = bucketCallback
	} else {
		t.cur = t.class(ev.Proc)
		t.resumes[t.cur]++
	}
	t.open, t.sliceStart = true, now
}

// class returns the bucket of a process name, caching the table lookup.
func (t *tracer) class(proc string) int {
	if c, ok := t.classes[proc]; ok {
		return c
	}
	c := bucketUnclassified
	m := moduleOf(proc)
	for i, name := range modules {
		if name == m {
			c = i
		}
	}
	if c == bucketUnclassified {
		t.unassigned[proc] = true
	}
	t.classes[proc] = c
	return c
}

// returned closes the open slice: control is back in the benchmark. It is a
// no-op on the untraced run's nil tracer.
func (t *tracer) returned() {
	if t != nil && t.open {
		t.hostNs[t.cur] += t.now() - t.sliceStart
		t.open = false
	}
}

// stopwatch times one call from the benchmark into the program; in the
// traced run it also records a span.
type stopwatch struct {
	tr    *tracer
	span  int
	start time.Time
}

func (t *tracer) start(name, track string, op, parent int) stopwatch {
	sw := stopwatch{tr: t, start: time.Now()}
	if t != nil {
		t.spans = append(t.spans, span{name: name, track: track, op: op, parent: parent, start: int64(sw.start.Sub(t.base))})
		sw.span = len(t.spans)
	}
	return sw
}

// stop closes the span and returns the elapsed host time in ms.
func (sw stopwatch) stop() float64 {
	now := time.Now()
	if sw.tr != nil {
		sw.tr.spans[sw.span-1].end = int64(now.Sub(sw.tr.base))
	}
	return float64(now.Sub(sw.start)) / 1e6
}

// writeChrome writes the spans as Chrome trace_event JSON, one track per
// module, so Perfetto opens them.
func (t *tracer) writeChrome(path string) error {
	events := []telemetry.ChromeTraceEvent{{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]string{"name": "hostbench"},
	}}
	tids := map[string]int{}
	for i, s := range t.spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, telemetry.ChromeTraceEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: tid,
				Args: map[string]string{"name": s.track},
			})
		}
		dur := float64(s.end-s.start) / 1e3
		events = append(events, telemetry.ChromeTraceEvent{
			Name: s.name, Phase: "X", TS: float64(s.start) / 1e3, Dur: &dur, PID: 1, TID: tid,
			Args: map[string]string{
				"id":     strconv.Itoa(i + 1),
				"op":     strconv.Itoa(s.op),
				"parent": strconv.Itoa(s.parent),
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
