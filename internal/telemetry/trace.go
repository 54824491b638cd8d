package telemetry

import (
	"context"
	"sync/atomic"
)

// Trace and span ids are process-local counters: cheap, collision-free
// within one run, and stable enough for tests to reason about
// parentage. A ledger is always written by one process, so global
// uniqueness buys nothing here.
var (
	traceIDs atomic.Uint64
	spanIDs  atomic.Uint64
)

func newTraceID() TraceID { return TraceID(traceIDs.Add(1)) }
func newSpanID() SpanID   { return SpanID(spanIDs.Add(1)) }

// spanCtxKey carries the active span through a context chain.
type spanCtxKey struct{}

// StartSpan begins a span as a child of the context's active span and
// returns a context carrying the new span, for the next layer down.
// With no active span it starts a new trace.
//
// When the registry is nil or no sink is installed, the original
// context and a nil (no-op) span come back — with no allocations, the
// same zero-cost contract the metric instruments honour (pinned by
// BenchmarkSpanOverhead/disabled).
func StartSpan(ctx context.Context, r *Registry, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	box := r.sink.Load()
	if box == nil {
		return ctx, nil
	}
	var s *Span
	if parent, _ := ctx.Value(spanCtxKey{}).(*Span); parent != nil {
		s = newSpan(name, parent.Trace, parent.ID, box.sink)
	} else {
		s = newSpan(name, newTraceID(), 0, box.sink)
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}
