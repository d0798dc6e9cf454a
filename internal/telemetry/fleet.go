package telemetry

import (
	"sort"
	"strings"
	"sync"
)

// Fleet aggregates the registries of many simulated hosts. Each host gets its
// own Registry — instrumentation sites stay host-unaware and within the
// bounded-cardinality label rules — and the fleet injects a `host` label into
// every metric ID at export time, so series from N hypervisors never collide.
//
// The `host` label key is reserved for this exporter; the metricnames lint
// rejects instrumentation sites that set it directly.
type Fleet struct {
	mu    sync.Mutex
	names []string // registration order, for deterministic iteration
	hosts map[string]*Registry
}

// NewFleet returns an empty fleet aggregator.
func NewFleet() *Fleet {
	return &Fleet{hosts: make(map[string]*Registry)}
}

// Host returns the registry for the named host, creating it on first use.
// On a nil fleet it returns nil — the disabled telemetry layer.
func (f *Fleet) Host(name string) *Registry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.hosts[name]
	if !ok {
		r = New()
		f.hosts[name] = r
		f.names = append(f.names, name)
	}
	return r
}

// withHostLabel rewrites a canonical metric ID (`name` or `name{k=v,...}`,
// labels sorted by key) to include host=<host>, preserving the sort.
func withHostLabel(id, host string) string {
	name, rest := id, ""
	if i := strings.IndexByte(id, '{'); i >= 0 {
		name, rest = id[:i], id[i+1:len(id)-1]
	}
	labels := []string{"host=" + host}
	if rest != "" {
		labels = append(labels, strings.Split(rest, ",")...)
	}
	sort.Strings(labels)
	return name + "{" + strings.Join(labels, ",") + "}"
}

// Snapshot merges every host's snapshot into one, labeling each series with
// its host. Sections are re-sorted by the rewritten IDs so output stays
// stable; span streams are concatenated in host registration order (each
// SpanEvent already carries its domain).
func (f *Fleet) Snapshot() Snapshot {
	var merged Snapshot
	if f == nil {
		return merged
	}
	f.mu.Lock()
	names := append([]string(nil), f.names...)
	hosts := make(map[string]*Registry, len(f.hosts))
	for n, r := range f.hosts {
		hosts[n] = r
	}
	f.mu.Unlock()

	for _, name := range names {
		s := hosts[name].Snapshot()
		for _, c := range s.Counters {
			c.Name = withHostLabel(c.Name, name)
			merged.Counters = append(merged.Counters, c)
		}
		for _, g := range s.Gauges {
			g.Name = withHostLabel(g.Name, name)
			merged.Gauges = append(merged.Gauges, g)
		}
		for _, h := range s.Histograms {
			h.Name = withHostLabel(h.Name, name)
			merged.Histograms = append(merged.Histograms, h)
		}
		merged.Spans = append(merged.Spans, s.Spans...)
		merged.SpansDropped += s.SpansDropped
	}
	sort.Slice(merged.Counters, func(i, j int) bool { return merged.Counters[i].Name < merged.Counters[j].Name })
	sort.Slice(merged.Gauges, func(i, j int) bool { return merged.Gauges[i].Name < merged.Gauges[j].Name })
	sort.Slice(merged.Histograms, func(i, j int) bool { return merged.Histograms[i].Name < merged.Histograms[j].Name })
	return merged
}
