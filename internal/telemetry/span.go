package telemetry

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// SpanSink receives completed spans. Implementations must be safe for
// concurrent Emit calls.
type SpanSink interface {
	Emit(Span)
}

// sinkBox wraps the interface so it can live in an atomic.Pointer.
type sinkBox struct{ sink SpanSink }

// SetSpanSink installs (or, with nil, removes) the span sink. Without
// a sink StartSpan returns nil and span tracing costs nothing.
func (r *Registry) SetSpanSink(s SpanSink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{sink: s})
}

// TraceID identifies one trace: a tree of spans covering a whole run,
// crawl or request. The zero value means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. The zero value marks a
// root span's ParentID.
type SpanID uint64

// String renders the id as fixed-width hex (the ledger encoding).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the id as fixed-width hex (the ledger encoding).
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// AttrKind tags how a span attribute's rendered Value should be
// re-interpreted by consumers (tracecat). The zero value is
// AttrString, so untagged composite literals keep meaning plain
// strings. AttrBool and AttrFloat only name ledger kinds ("bool",
// "float"): no constructor emits them.
type AttrKind uint8

const (
	AttrString AttrKind = iota
	AttrInt
	AttrBool
	AttrFloat
	AttrDuration
)

// Attr is one span attribute. Value always carries the rendered text;
// Kind records the original type so aggregation tools need not guess.
type Attr struct {
	Key   string
	Value string
	Kind  AttrKind
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(v, 10), Kind: AttrInt}
}

// Duration builds a duration attribute (Value is time.Duration syntax,
// re-parseable with time.ParseDuration).
func Duration(key string, d time.Duration) Attr {
	return Attr{Key: key, Value: d.String(), Kind: AttrDuration}
}

// Event is one timestamped point inside a span — a retry, a budget
// trip, a checkpoint save — cheaper than a child span when there is no
// duration to measure.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// spanState is the mutable part of a live span, shared by reference so
// emitted copies stay plain data (no locks to copy).
type spanState struct {
	mu    sync.Mutex
	ended bool
}

// Span is one timed operation in a trace. Start one with the package
// StartSpan (context-propagating) or Registry.StartSpan (explicit
// root), attach attributes and events, call End. All methods are
// no-ops on a nil receiver, so instrumented code never checks whether
// tracing is on. SetAttr, Event and End are safe to call concurrently;
// End is idempotent — the first call emits, later ones do nothing.
type Span struct {
	Name   string
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Start  time.Time
	Stop   time.Time
	Attrs  []Attr
	Events []Event

	sink SpanSink
	st   *spanState
}

// StartSpan begins a root span with no context to inherit from — the
// explicit form used by code that has no context.Context in reach
// (the analysis package's index-build hook). It returns nil — a no-op
// span — when the registry is nil or no sink is installed.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	box := r.sink.Load()
	if box == nil {
		return nil
	}
	return newSpan(name, newTraceID(), 0, box.sink)
}

func newSpan(name string, trace TraceID, parent SpanID, sink SpanSink) *Span {
	return &Span{
		Name:   name,
		Trace:  trace,
		ID:     newSpanID(),
		Parent: parent,
		Start:  time.Now(),
		sink:   sink,
		st:     &spanState{},
	}
}

// SetAttr attaches one string attribute.
func (s *Span) SetAttr(key, value string) { s.setAttr(Attr{Key: key, Value: value}) }

// SetAttrInt attaches one integer attribute. Like every Span method it
// is a no-op on a nil span, and returns before formatting v, so the
// disabled path allocates nothing.
func (s *Span) SetAttrInt(key string, v int64) {
	if s != nil {
		s.setAttr(Int(key, v))
	}
}

// SetAttrDuration attaches one duration attribute, formatting d only
// for a live span.
func (s *Span) SetAttrDuration(key string, d time.Duration) {
	if s != nil {
		s.setAttr(Duration(key, d))
	}
}

func (s *Span) setAttr(a Attr) {
	if s == nil {
		return
	}
	s.st.mu.Lock()
	if !s.st.ended {
		s.Attrs = append(s.Attrs, a)
	}
	s.st.mu.Unlock()
}

// Event records one timestamped in-span event.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.st.mu.Lock()
	if !s.st.ended {
		s.Events = append(s.Events, Event{Name: name, Time: time.Now(), Attrs: attrs})
	}
	s.st.mu.Unlock()
}

// End stamps the span's stop time and emits it to the sink. End is
// idempotent and safe to race with SetAttr/Event from other
// goroutines: exactly one emission happens, carrying every attribute
// attached before it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.st.mu.Lock()
	if s.st.ended {
		s.st.mu.Unlock()
		return
	}
	s.st.ended = true
	s.Stop = time.Now()
	rec := *s
	s.st.mu.Unlock()
	s.sink.Emit(rec)
}

// Duration is the span's elapsed time (0 on nil or before End).
func (s *Span) Duration() time.Duration {
	if s == nil || s.Stop.IsZero() {
		return 0
	}
	return s.Stop.Sub(s.Start)
}

// RecordingSink collects spans in memory, for tests asserting on
// emitted spans.
type RecordingSink struct {
	mu    sync.Mutex
	spans []Span
}

// Emit implements SpanSink.
func (k *RecordingSink) Emit(s Span) {
	k.mu.Lock()
	k.spans = append(k.spans, s)
	k.mu.Unlock()
}

// Spans returns a copy of everything emitted so far.
func (k *RecordingSink) Spans() []Span {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]Span(nil), k.spans...)
}

// Named returns the emitted spans with the given name.
func (k *RecordingSink) Named(name string) []Span {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []Span
	for _, s := range k.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
