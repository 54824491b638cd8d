package collector

import (
	"context"
	"time"

	"ixplight/internal/telemetry"
)

// Metrics is the collector's instrument set. Build one with NewMetrics
// and hand it to CollectOptions.Metrics; every target of a
// multi-IXP run may share one set — counters aggregate. A
// nil *Metrics disables instrumentation at zero cost, the same
// nil-receiver contract as lg.Metrics.
type Metrics struct {
	reg               *telemetry.Registry
	neighborSeconds   *telemetry.Histogram  // per-neighbor crawl duration
	neighbors         *telemetry.CounterVec // by outcome: ok/failed/skipped
	neighborRetries   *telemetry.Counter    // neighbor-level re-crawls
	snapshots         *telemetry.CounterVec // by outcome: ok/partial/failed
	memberErrors      *telemetry.Counter    // degraded-member records written
	budgetTrips       *telemetry.Counter    // circuit-breaker trips
	budgetRemaining   *telemetry.Gauge      // failures left before a trip
	checkpointSeconds *telemetry.Histogram  // checkpoint save latency
	workersBusy       *telemetry.Gauge      // neighbor-crawl workers in flight
	targetsBusy       *telemetry.Gauge      // targets being crawled right now
}

// NewMetrics registers the collector metric families on reg and
// returns the instrument set. A nil registry returns nil — the
// disabled, zero-cost form.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reg: reg,
		neighborSeconds: reg.Histogram("ixplight_collector_neighbor_seconds",
			"Wall-clock duration of one neighbor's route crawl, retries included.", nil),
		neighbors: reg.CounterVec("ixplight_collector_neighbors_total",
			"Crawl-plan neighbors by outcome (ok, failed, skipped).", "outcome"),
		neighborRetries: reg.Counter("ixplight_collector_neighbor_retries_total",
			"Neighbor-level re-crawls beyond the first attempt."),
		snapshots: reg.CounterVec("ixplight_collector_snapshots_total",
			"Finished crawls by outcome (ok, partial, failed).", "outcome"),
		memberErrors: reg.Counter("ixplight_collector_member_errors_total",
			"Member errors recorded in degraded snapshots."),
		budgetTrips: reg.Counter("ixplight_collector_budget_trips_total",
			"Error-budget circuit-breaker trips."),
		budgetRemaining: reg.Gauge("ixplight_collector_budget_remaining",
			"Consecutive failures left before the error budget trips (last crawl)."),
		checkpointSeconds: reg.Histogram("ixplight_collector_checkpoint_seconds",
			"Checkpoint save latency.", nil),
		workersBusy: reg.Gauge("ixplight_collector_workers_busy",
			"Neighbor-crawl workers currently fetching routes."),
		targetsBusy: reg.Gauge("ixplight_collector_targets_busy",
			"Targets currently being crawled in a multi-IXP run."),
	}
}

// startSpan begins a trace span as a child of the context's active
// span, returning the child context for the next layer down
// (nil-safe, allocation-free when tracing is off). Crawl spans form a
// tree this way: collector.collect parents every collector.neighbor,
// which parents the LG client's lg.request spans — across the
// parallel worker pool too, since each worker crawls with the collect
// span's context.
func (m *Metrics) startSpan(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if m == nil {
		return ctx, nil
	}
	return telemetry.StartSpan(ctx, m.reg, name)
}

// now is the zero-cost clock: the zero time when instrumentation is
// off, which ObserveSince ignores.
func (m *Metrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// workerStart marks one neighbor-crawl worker as busy.
func (m *Metrics) workerStart() {
	if m != nil {
		m.workersBusy.Inc()
	}
}

// workerDone balances workerStart.
func (m *Metrics) workerDone() {
	if m != nil {
		m.workersBusy.Dec()
	}
}

// neighborCrawled records one finished neighbor crawl: its duration
// and any retries beyond the first attempt.
func (m *Metrics) neighborCrawled(dur time.Duration, attempts int) {
	if m == nil {
		return
	}
	m.neighborSeconds.ObserveDuration(dur)
	m.neighborRetries.Add(int64(attempts - 1))
}

// neighborOutcome counts one crawl-plan entry's final disposition.
func (m *Metrics) neighborOutcome(outcome string) {
	if m != nil {
		m.neighbors.With(outcome).Inc()
	}
}

// memberError counts one degraded-member record.
func (m *Metrics) memberError() {
	if m != nil {
		m.memberErrors.Inc()
	}
}

// budget publishes the error budget's state after a crawl.
func (m *Metrics) budget(remaining int, tripped bool) {
	if m == nil {
		return
	}
	m.budgetRemaining.Set(int64(remaining))
	if tripped {
		m.budgetTrips.Inc()
	}
}

// snapshotDone counts one finished crawl by outcome.
func (m *Metrics) snapshotDone(outcome string) {
	if m != nil {
		m.snapshots.With(outcome).Inc()
	}
}

// checkpointSaved records one checkpoint save's latency.
func (m *Metrics) checkpointSaved(t0 time.Time) {
	if m != nil {
		m.checkpointSeconds.ObserveSince(t0)
	}
}

// targetStart marks one multi-run target as in flight.
func (m *Metrics) targetStart() {
	if m != nil {
		m.targetsBusy.Inc()
	}
}

// targetDone balances targetStart.
func (m *Metrics) targetDone() {
	if m != nil {
		m.targetsBusy.Dec()
	}
}

// CrawlStats summarizes one crawl for logs and degraded-run reports.
// CollectWithOptions fills the struct pointed to by CollectOptions.Stats
// whenever the crawl produces a snapshot (including partial ones).
type CrawlStats struct {
	// Neighbors is the crawl-plan size (checkpointed and route-free
	// neighbors excluded).
	Neighbors int
	// Failed and Skipped count the plan entries that ended in a member
	// error; Skipped ones were never attempted because the budget
	// tripped first.
	Failed  int
	Skipped int
	// Retries counts neighbor-level re-crawls beyond each first attempt.
	Retries int
	// SlowestASN and Slowest identify the slowest neighbor crawl.
	SlowestASN uint32
	Slowest    time.Duration
	// BudgetRemaining is how many consecutive failures were left before
	// the error budget would have tripped (-1 when no budget is set).
	BudgetRemaining int
	// BudgetTripped reports whether the circuit breaker fired.
	BudgetTripped bool
}
