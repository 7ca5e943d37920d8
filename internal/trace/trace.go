// Package trace is the run-time observability layer of the repository: a
// lightweight, concurrency-safe span tracer threaded through core.Input
// alongside Stats. Where Stats answers "how much work did the whole run
// do?", a trace answers the §4 question of *where the time went*: every
// pipeline phase — candidate generation per subset size, the per-family
// breadth-first searches, each table-scan-vs-rollup decision, cube
// pre-computation waves, and the baseline algorithms — records a span with
// monotonic wall-clock timings and per-phase counters, forming a tree that
// is exported as machine-readable JSON.
//
// The package is built around one invariant: a nil *Tracer is a fully
// functional disabled tracer. Every method of Tracer and Span is nil-safe
// and allocation-free on the nil receiver (guarded by an allocation test),
// so instrumented code never branches on "is tracing on?" and the hot
// paths pay nothing when tracing is off.
//
// Counters are recorded exactly once, at the finest enclosing span (a
// family search, a cube wave, a lattice stratum). Summing a counter over
// the whole tree therefore reproduces the matching core.Stats total — the
// property the determinism tests assert.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects a forest of spans for one run. The zero value is not
// used; construct with New. A nil *Tracer is the canonical disabled
// tracer: all methods no-op and allocate nothing.
type Tracer struct {
	epoch time.Time // monotonic reference for all span offsets

	mu    sync.Mutex
	spans []*Span
	attrs map[string]any
}

// New returns an enabled tracer whose span offsets are measured from now.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), attrs: map[string]any{}}
}

// Enabled reports whether the tracer records anything (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// SetAttr attaches a document-level attribute (e.g. dataset, algorithm,
// parallelism) to the trace. No-op on a nil tracer.
func (t *Tracer) SetAttr(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs[key] = value
	t.mu.Unlock()
}

// Start opens a top-level span. On a nil tracer it returns a nil span,
// whose methods are all no-ops.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, start: time.Since(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed phase of a run. Spans nest (Start on a span opens a
// child) and may be written to from the goroutine that owns them while
// siblings are written concurrently: the parent's child list and every
// span's own state are guarded by per-span locks. All methods are no-ops
// on a nil span.
type Span struct {
	t     *Tracer
	name  string
	start time.Duration // offset from the tracer epoch

	mu       sync.Mutex
	end      time.Duration // 0 until End; rendered as dur = end - start
	ended    bool
	attrs    map[string]any
	counters map[string]int64
	children []*Span
}

// Start opens a child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{t: s.t, name: name, start: time.Since(s.t.epoch)}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span with a monotonic end time. Ending twice keeps the
// first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Since(s.t.epoch)
	s.mu.Lock()
	if !s.ended {
		s.end, s.ended = now, true
	}
	s.mu.Unlock()
}

// SetAttr attaches an attribute to the span (use for identity, not for
// quantities that should aggregate — those belong in Add counters).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Add accumulates n into the span's named counter. Counters sum over the
// span tree: record each unit of work on exactly one span.
func (s *Span) Add(counter string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[counter] += n
	s.mu.Unlock()
}

// Counters returns the sum of every counter over the whole span forest —
// the aggregate the determinism tests compare against core.Stats. Returns
// nil on a nil tracer.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	total := map[string]int64{}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	for _, s := range spans {
		s.sumInto(total)
	}
	return total
}

func (s *Span) sumInto(total map[string]int64) {
	s.mu.Lock()
	for k, v := range s.counters {
		total[k] += v
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.sumInto(total)
	}
}

// Document is the exported JSON shape of a trace: format version, document
// attributes, aggregate counters, and the span forest with microsecond
// offsets/durations from the tracer epoch.
type Document struct {
	Version  int              `json:"version"`
	Attrs    map[string]any   `json:"attrs,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Spans    []*SpanDoc       `json:"spans"`
}

// SpanDoc is one exported span.
type SpanDoc struct {
	Name     string           `json:"name"`
	StartUS  int64            `json:"start_us"`
	DurUS    int64            `json:"dur_us"`
	Attrs    map[string]any   `json:"attrs,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*SpanDoc       `json:"children,omitempty"`
}

// Export snapshots the trace as a Document. Unended spans get the current
// time as their end. Returns nil on a nil tracer.
func (t *Tracer) Export() *Document {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	doc := &Document{Version: 1, Spans: make([]*SpanDoc, 0, len(t.spans))}
	if len(t.attrs) > 0 {
		doc.Attrs = make(map[string]any, len(t.attrs))
		for k, v := range t.attrs {
			doc.Attrs[k] = v
		}
	}
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	for _, s := range spans {
		doc.Spans = append(doc.Spans, s.export(now))
	}
	doc.Counters = t.Counters()
	if len(doc.Counters) == 0 {
		doc.Counters = nil
	}
	return doc
}

func (s *Span) export(now time.Duration) *SpanDoc {
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = now
	}
	d := &SpanDoc{
		Name:    s.name,
		StartUS: s.start.Microseconds(),
		DurUS:   (end - s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	if len(s.counters) > 0 {
		d.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			d.Counters[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.export(now))
	}
	return d
}

// WriteJSON renders the trace as indented JSON (encoding/json sorts map
// keys, so the output is deterministic for a given span tree up to the
// recorded timings). On a nil tracer it writes an empty document so
// downstream consumers always get valid JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := t.Export()
	if doc == nil {
		doc = &Document{Version: 1, Spans: []*SpanDoc{}}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Walk visits every exported span in depth-first order — the shape
// consumers (and the sum-to-Stats tests) iterate with.
func (d *Document) Walk(fn func(path []string, s *SpanDoc)) {
	var rec func(path []string, s *SpanDoc)
	rec = func(path []string, s *SpanDoc) {
		path = append(path, s.Name)
		fn(path, s)
		for _, c := range s.Children {
			rec(path, c)
		}
	}
	for _, s := range d.Spans {
		rec(nil, s)
	}
}

// Find returns every exported span with the given name, depth-first.
func (d *Document) Find(name string) []*SpanDoc {
	var out []*SpanDoc
	d.Walk(func(_ []string, s *SpanDoc) {
		if s.Name == name {
			out = append(out, s)
		}
	})
	return out
}

// SumCounter totals one counter over the document's span forest.
func (d *Document) SumCounter(name string) int64 {
	var total int64
	d.Walk(func(_ []string, s *SpanDoc) {
		total += s.Counters[name]
	})
	return total
}

// CounterNames lists the counter names present anywhere in the document,
// sorted, for stable reporting.
func (d *Document) CounterNames() []string {
	seen := map[string]bool{}
	d.Walk(func(_ []string, s *SpanDoc) {
		for k := range s.Counters {
			seen[k] = true
		}
	})
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
