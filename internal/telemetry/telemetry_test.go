package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"xoar/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("c", L("a", "b"))
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyMSBuckets)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h != nil {
		t.Fatalf("nil handles recorded something: c=%d g=%g h=%v", c.Value(), g.Value(), h)
	}
	sp := r.StartSpan("dom", "op", 0)
	sp.EndAt(10)
	if child := sp.StartChild("x", 5); child != nil {
		t.Fatalf("nil span produced a child")
	}
	if ev := r.Tracer().Events(); ev != nil {
		t.Fatalf("nil tracer returned events: %v", ev)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestMetricIDLabelOrderInsensitive(t *testing.T) {
	r := New()
	a := r.Counter("reqs", L("op", "read"), L("shard", "xs"))
	b := r.Counter("reqs", L("shard", "xs"), L("op", "read"))
	if a != b {
		t.Fatalf("label order produced distinct counters")
	}
	a.Inc()
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "reqs{op=read,shard=xs}" {
		t.Fatalf("unexpected counters: %+v", snap.Counters)
	}
}

func TestHistogramExactAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ms", []float64{1, 2, 5, 10})
	vals := []float64{0.5, 1.5, 1.5, 4, 8, 20}
	var want float64
	for _, v := range vals {
		h.Observe(v)
		want += v
	}
	if h.count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.count, len(vals))
	}
	if math.Abs(h.sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.sum, want)
	}
	if q := h.quantileLocked(0); q < 0.5 || q > 1 {
		t.Fatalf("p0 = %g, want within first bucket [0.5,1]", q)
	}
	if q := h.quantileLocked(1); q != 20 {
		t.Fatalf("p100 = %g, want observed max 20", q)
	}
	if q := h.quantileLocked(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1,2] bucket", q)
	}
	// All mass in one bucket: quantile stays clamped to [min,max].
	h2 := r.Histogram("one", []float64{10})
	h2.Observe(3)
	h2.Observe(3)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h2.quantileLocked(q); got < 3-1e-9 || got > 3+1e-9 {
			t.Fatalf("Quantile(%g) = %g, want 3", q, got)
		}
	}
}

func TestSpansNestAndExport(t *testing.T) {
	r := New()
	root := r.StartSpan("builder", "build:netback", 100)
	c1 := root.StartChild("construct", 100)
	c1.EndAt(150)
	c2 := root.StartChild("boot", 150)
	c2.EndAt(400)
	root.EndAt(400)
	other := r.StartSpan("xenstore", "restart", 50)
	other.EndAt(60)

	ev := r.Tracer().Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d, want 4", len(ev))
	}
	if ev[0].Name != "build:netback" || ev[0].Duration != 300 {
		t.Fatalf("root event wrong: %+v", ev[0])
	}
	if ev[1].Parent != ev[0].ID || ev[2].Parent != ev[0].ID {
		t.Fatalf("children not linked to root: %+v", ev)
	}

	if ev[2].Name != "boot" || ev[2].Domain != "builder" || ev[2].Duration != 250 {
		t.Fatalf("child event wrong: %+v", ev[2])
	}
	if ev[3].Name != "restart" || ev[3].Domain != "xenstore" || ev[3].Parent != 0 {
		t.Fatalf("xenstore root event wrong: %+v", ev[3])
	}
	// Double EndAt keeps the first end.
	root.EndAt(999)
	if ev := r.Tracer().Events(); ev[0].End != 400 {
		t.Fatalf("double EndAt moved end to %d", ev[0].End)
	}
}

func TestTracerBufferBounded(t *testing.T) {
	tr := NewTracer()
	tr.limit = 4
	for i := 0; i < 10; i++ {
		sp := tr.Start("d", "op", sim.Time(i))
		sp.EndAt(sim.Time(i + 1))
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("recorded %d spans, want 4", got)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := New()
	r.Counter("builds_total").Add(3)
	r.Gauge("queue_now").Set(2)
	h := r.Histogram("build_ms", LatencyMSBuckets, L("class", "netback"))
	h.Observe(120)
	sp := r.StartSpan("builder", "build", 0)
	sp.EndAt(sim.Time(5 * sim.Millisecond))

	snap := r.Snapshot()
	text := snap.Text()
	for _, want := range []string{"builds_total", "build_ms{class=netback}", "n=1", "queue_now", "[builder] build"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
	raw, err := snap.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("round-tripped histograms wrong: %+v", back.Histograms)
	}
}

// TestConcurrentExactness hammers one counter and one histogram from many
// goroutines and checks nothing is lost; run with -race to also check the
// synchronization (the CI race shard does).
func TestConcurrentExactness(t *testing.T) {
	r := New()
	const workers, per = 16, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve through the registry every time: the lookup path is
			// shared state too.
			c := r.Counter("hits_total")
			h := r.Histogram("lat_ms", LatencyMSBuckets)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	h := r.Histogram("lat_ms", LatencyMSBuckets)
	if h.count != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.count, workers*per)
	}
	if h.sum != float64(workers*per*2) {
		t.Fatalf("histogram sum = %g, want %d", h.sum, workers*per*2)
	}
}
