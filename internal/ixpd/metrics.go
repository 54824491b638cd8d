package ixpd

import (
	"strconv"
	"time"

	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// metrics is the daemon's instrument set. Every field is nil-safe
// (the telemetry package's no-op contract), so a Server without a
// registry pays one nil check per operation.
type metrics struct {
	requests       *telemetry.CounterVec // endpoint, code
	seconds        *telemetry.HistogramVec
	inFlight       *telemetry.Gauge
	notModified    *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	coalesced      *telemetry.Counter
	computeSeconds *telemetry.Histogram
	rejected       *telemetry.Counter
	waitTimeouts   *telemetry.Counter
	reloads        *telemetry.CounterVec // result
	generation     *telemetry.Gauge
	computePanics  *telemetry.Counter
	reloadSeconds  *telemetry.Histogram
	reloadDays     *telemetry.CounterVec // how
	skipped        *telemetry.Gauge
	datasetAge     *telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		requests: reg.CounterVec("ixplight_ixpd_requests_total",
			"API requests served, by endpoint and status code.", "endpoint", "code"),
		seconds: reg.HistogramVec("ixplight_ixpd_request_seconds",
			"API request handling time by endpoint, including cache hits and 304s.", nil, "endpoint"),
		inFlight: reg.Gauge("ixplight_ixpd_in_flight",
			"API requests currently being handled."),
		notModified: reg.Counter("ixplight_ixpd_not_modified_total",
			"Requests answered 304 from If-None-Match revalidation (zero recompute)."),
		cacheHits: reg.Counter("ixplight_ixpd_cache_hits_total",
			"Requests answered from the pre-rendered response cache."),
		cacheMisses: reg.Counter("ixplight_ixpd_cache_misses_total",
			"Requests that missed the response cache and entered a compute flight."),
		coalesced: reg.Counter("ixplight_ixpd_coalesced_total",
			"Requests that joined another request's in-flight identical computation."),
		computeSeconds: reg.Histogram("ixplight_ixpd_compute_seconds",
			"Response computation time (experiment run + JSON render), cache misses only.", nil),
		rejected: reg.Counter("ixplight_ixpd_admission_rejected_total",
			"Computations rejected because no admission slot freed within the request timeout."),
		waitTimeouts: reg.Counter("ixplight_ixpd_wait_timeouts_total",
			"Requests that timed out (or disconnected) waiting on a coalesced computation."),
		reloads: reg.CounterVec("ixplight_ixpd_reloads_total",
			"Dataset hot-reload attempts that found a changed directory, by result.", "result"),
		generation: reg.Gauge("ixplight_ixpd_generation",
			"Sequence number of the dataset generation currently serving."),
		computePanics: reg.Counter("ixplight_ixpd_compute_panics_total",
			"Response computations that panicked and were answered 500."),
		reloadSeconds: reg.Histogram("ixplight_ixpd_reload_seconds",
			"Time to build and install a dataset generation, from the directory listing on; the initial load included.", nil),
		reloadDays: reg.CounterVec("ixplight_ixpd_reload_days_total",
			"Collection days in installed generations by origin: reused from the predecessor, advanced from its chain tip, or rebuilt from a file.", "how"),
		skipped: reg.Gauge("ixplight_ixpd_skipped_files",
			"Dataset files the serving generation could not load."),
		datasetAge: reg.Gauge("ixplight_ixpd_dataset_age_seconds",
			"Seconds from the newest collection day loaded to the last reload poll."),
	}
}

// reloaded records one installed generation's build.
func (m *metrics) reloaded(t0 time.Time, rep *report.LoadReport) {
	m.reloadSeconds.ObserveSince(t0)
	m.reloadDays.With("reused").Add(int64(rep.Reused))
	m.reloadDays.With("advanced").Add(int64(rep.Advanced))
	m.reloadDays.With("rebuilt").Add(int64(rep.Rebuilt))
}

// age refreshes the dataset age gauge against gen's newest day.
func (m *metrics) age(gen *generation) {
	if !gen.newest.IsZero() {
		m.datasetAge.Set(int64(time.Since(gen.newest) / time.Second))
	}
}

// request records one served request.
func (m *metrics) request(endpoint string, code int, d time.Duration) {
	m.requests.With(endpoint, strconv.Itoa(code)).Inc()
	m.seconds.With(endpoint).ObserveDuration(d)
}
