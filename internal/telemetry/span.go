package telemetry

import (
	"sync"

	"xoar/internal/sim"
)

// SpanID identifies one span within a Tracer. Zero is "no span".
type SpanID int64

// Span is one timed operation on the simulated clock. Spans nest: children
// created with StartChild carry their parent's ID, so the per-domain tree
// can be rebuilt at export time. All methods are nil-safe, so disabled
// telemetry costs one nil check at each instrumentation site.
//
// Spans take explicit sim.Time arguments instead of reading a clock:
// instrumentation sites already hold a *sim.Proc (or the environment), and
// an explicit timestamp keeps the tracer free of any scheduling dependency.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID

	domain string // owning shard/domain class, e.g. "builder"
	name   string
	start  sim.Time
	end    sim.Time
	ended  bool
}

// Tracer records spans in start order. The buffer is bounded: once full,
// new Start calls are counted as dropped rather than growing without
// limit (long simulations would otherwise accumulate spans forever).
type Tracer struct {
	mu      sync.Mutex
	nextID  SpanID
	spans   []*Span
	limit   int
	dropped int64
}

// spanLimit bounds the per-tracer span buffer.
const spanLimit = 8192

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{limit: spanLimit} }

// Start opens a root span for the given domain at time now. Returns nil on
// a nil tracer or when the span buffer is full.
func (t *Tracer) Start(domain, name string, now sim.Time) *Span {
	return t.start(domain, name, 0, now)
}

func (t *Tracer) start(domain, name string, parent SpanID, now sim.Time) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{
		tr:     t,
		id:     t.nextID,
		parent: parent,
		domain: domain,
		name:   name,
		start:  now,
		end:    now,
	}
	t.spans = append(t.spans, s)
	return s
}

// Dropped reports how many spans were discarded because the buffer was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// StartChild opens a nested span under s in the same domain. Returns nil
// on a nil span.
func (s *Span) StartChild(name string, now sim.Time) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s.domain, name, s.id, now)
}

// EndAt closes the span at time now. Ending twice keeps the first end.
// No-op on nil.
func (s *Span) EndAt(now sim.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = now
}

// SpanEvent is the flat-export form of one span.
type SpanEvent struct {
	ID       SpanID       `json:"id"`
	Parent   SpanID       `json:"parent,omitempty"`
	Domain   string       `json:"domain"`
	Name     string       `json:"name"`
	Start    sim.Time     `json:"start_ns"`
	End      sim.Time     `json:"end_ns"`
	Duration sim.Duration `json:"duration_ns"`
	Open     bool         `json:"open,omitempty"` // true if never ended
}

// Events returns every recorded span in start order, finished or not.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, SpanEvent{
			ID:       s.id,
			Parent:   s.parent,
			Domain:   s.domain,
			Name:     s.name,
			Start:    s.start,
			End:      s.end,
			Duration: s.end.Sub(s.start),
			Open:     !s.ended,
		})
	}
	return out
}

// Tracer returns the registry's span tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// StartSpan is shorthand for Tracer().Start.
func (r *Registry) StartSpan(domain, name string, now sim.Time) *Span {
	return r.Tracer().Start(domain, name, now)
}
