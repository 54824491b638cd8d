package lg

import (
	"context"
	"time"

	"ixplight/internal/telemetry"
)

// Metrics is the LG client's instrument set. Build one with
// NewMetrics and share it across every client scraping the same
// process — the counters aggregate, and per-call latency is labeled
// by endpoint, not by client. A nil *Metrics (the default) disables
// instrumentation: every recording method is a no-op behind an
// inlined nil check, so the uninstrumented hot path allocates and
// measures nothing (pinned by BenchmarkTelemetryOverhead).
type Metrics struct {
	reg          *telemetry.Registry     // span source (trace context propagation)
	requests     *telemetry.Counter      // logical API calls
	httpRequests *telemetry.Counter      // wire requests, incl. retries and pages
	retries      *telemetry.CounterVec   // by failure cause
	retryWait    *telemetry.HistogramVec // backoff vs honoured Retry-After
	pacerWait    *telemetry.Histogram    // MinInterval politeness delay
	inFlight     *telemetry.Gauge        // calls currently inside the client
	callSeconds  *telemetry.HistogramVec // per-endpoint logical call latency
	restarts     *telemetry.Counter      // listings walked again from page 0
}

// NewMetrics registers the LG client metric families on reg and
// returns the instrument set. A nil registry returns nil — the
// disabled, zero-cost form every ClientOptions defaults to.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reg: reg,
		requests: reg.Counter("ixplight_lg_requests_total",
			"Logical LG API calls (pagination and retries excluded)."),
		httpRequests: reg.Counter("ixplight_lg_http_requests_total",
			"HTTP requests sent to looking glasses, including retries and pagination."),
		retries: reg.CounterVec("ixplight_lg_retries_total",
			"Request retries by failure cause.", "cause"),
		retryWait: reg.HistogramVec("ixplight_lg_retry_wait_seconds",
			"Delay before each retry, by kind (backoff or honoured Retry-After).",
			nil, "kind"),
		pacerWait: reg.Histogram("ixplight_lg_pacer_wait_seconds",
			"Politeness delay imposed by the MinInterval pacer.", nil),
		inFlight: reg.Gauge("ixplight_lg_in_flight",
			"LG client calls currently in flight."),
		callSeconds: reg.HistogramVec("ixplight_lg_call_seconds",
			"Logical call latency by endpoint.", nil, "call"),
		restarts: reg.Counter("ixplight_lg_listing_restarts_total",
			"Route listings walked again from page 0 because the table moved under the walk (its ETag changed)."),
	}
}

// startSpan begins a trace span as a child of the context's active
// span (nil-safe, allocation-free when tracing is off). The LG
// client's per-request spans nest under the collector's neighbor
// spans this way, so one trace covers a whole crawl.
func (m *Metrics) startSpan(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if m == nil {
		return ctx, nil
	}
	return telemetry.StartSpan(ctx, m.reg, name)
}

// callStarted records one admitted logical call.
func (m *Metrics) callStarted() {
	if m == nil {
		return
	}
	m.requests.Inc()
	m.inFlight.Inc()
}

// callFinished balances callStarted.
func (m *Metrics) callFinished() {
	if m == nil {
		return
	}
	m.inFlight.Dec()
}

// httpRequest records one wire request.
func (m *Metrics) httpRequest() {
	if m == nil {
		return
	}
	m.httpRequests.Inc()
}

// retry records one retry and the delay preceding it. kind is
// "retry_after" when the server's Retry-After header was honoured,
// "backoff" otherwise; cause classifies the failure being retried.
func (m *Metrics) retry(cause, kind string, wait time.Duration) {
	if m == nil {
		return
	}
	m.retries.With(cause).Inc()
	m.retryWait.With(kind).ObserveDuration(wait)
}

// listingRestart records one listing started over from page 0.
func (m *Metrics) listingRestart() {
	if m == nil {
		return
	}
	m.restarts.Inc()
}

// pacer records one MinInterval politeness delay.
func (m *Metrics) pacer(wait time.Duration) {
	if m == nil {
		return
	}
	m.pacerWait.ObserveDuration(wait)
}

// noopTimer is the shared disabled call timer: returning the same
// func value keeps the off path allocation-free.
var noopTimer = func() {}

// callTimer starts a per-endpoint latency measurement; the returned
// func stops it. Disabled metrics return a shared no-op.
func (m *Metrics) callTimer(call string) func() {
	if m == nil {
		return noopTimer
	}
	h := m.callSeconds.With(call)
	t0 := time.Now()
	return func() { h.ObserveSince(t0) }
}
