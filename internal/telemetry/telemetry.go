// Package telemetry is the dependency-free metrics and tracing core
// of the collection and analysis pipeline: atomic counters and gauges,
// sharded histograms, a Registry of labeled metric families with
// Prometheus text-format exposition, and span-style trace hooks with a
// pluggable sink.
//
// Everything is nil-safe by design: a nil *Registry hands out nil
// instruments, and every method on a nil instrument is a no-op. A
// library user who never wires a registry pays only an inlined nil
// check on the hot paths — no allocations, no locks, no time.Now
// calls (see BenchmarkTelemetryOverhead).
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds, in exposition vocabulary.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds labeled metric families. All methods are safe for
// concurrent use, and every constructor is idempotent: asking twice
// for the same family returns the same instruments, so independent
// subsystems can share one registry without coordination.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	sink atomic.Pointer[sinkBox]
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a kind, a help string, label
// names, and one instrument per distinct label-value combination.
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// child is one instrument of a family, carrying the label values it
// was created with so exposition can render them back.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// SanitizeName maps an arbitrary string onto the Prometheus metric
// name charset: runs of invalid characters become single underscores,
// a leading digit is prefixed with one, and letters are lowercased to
// satisfy the repo's ixplight_[a-z_]+ naming rule.
func SanitizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevUnderscore := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c == '_':
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
		default:
			c = '_'
		}
		if c == '_' {
			if prevUnderscore {
				continue
			}
			prevUnderscore = true
		} else {
			prevUnderscore = false
		}
		b.WriteByte(c)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// family returns the named family, creating it on first use. Asking
// for an existing name with a different kind or label set is a
// programming error and panics — two subsystems silently sharing one
// name with different shapes would corrupt the exposition.
func (r *Registry) family(kind, name, help string, buckets []float64, labels []string) *family {
	name = SanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// labelKey joins label values into a map key. 0x00 cannot appear in a
// sane label value; even if it does, the worst case is two exotic
// children merging.
func labelKey(values []string) string { return strings.Join(values, "\x00") }

// child returns the instrument for one label-value combination,
// creating it on first use.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.children[key]
	if ch == nil {
		ch = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			ch.c = &Counter{}
		case kindGauge:
			ch.g = &Gauge{}
		case kindHistogram:
			ch.h = newHistogram(f.buckets)
		}
		f.children[key] = ch
	}
	return ch
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren snapshots a family's children in label-value order.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return labelKey(out[i].values) < labelKey(out[j].values)
	})
	return out
}

// --- counters -----------------------------------------------------------

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are no-ops on a nil receiver.
type Counter struct{ n atomic.Int64 }

// Counter returns the unlabeled counter family name. Nil-safe.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(kindCounter, name, help, nil, nil).child(nil).c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family. Nil-safe.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(kindCounter, name, help, nil, labels)}
}

// With returns the counter for one label-value combination. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).c
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(d int64) {
	if c != nil && d > 0 {
		c.n.Add(d)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// --- gauges -------------------------------------------------------------

// Gauge is a metric that can go up and down. The zero value is ready
// to use; all methods are no-ops on a nil receiver.
type Gauge struct{ n atomic.Int64 }

// Gauge returns the unlabeled gauge family name. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(kindGauge, name, help, nil, nil).child(nil).g
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.n.Store(v)
	}
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.n.Add(d)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// --- histograms (registration; mechanics in histogram.go) ---------------

// Histogram registers an unlabeled histogram with the given upper
// bounds (nil = DefBuckets). Nil-safe.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(kindHistogram, name, help, normalizeBuckets(buckets), nil).child(nil).h
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family. Nil-safe.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(kindHistogram, name, help, normalizeBuckets(buckets), labels)}
}

// With returns the histogram for one label-value combination. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).h
}
