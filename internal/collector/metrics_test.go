package collector

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"ixplight/internal/lg"
	"ixplight/internal/telemetry"
)

// TestCollectMetricsAndStats: a degraded crawl with one dead neighbor
// must land in every collector instrument and fill CrawlStats.
func TestCollectMetricsAndStats(t *testing.T) {
	server := degradedFixture(t, []uint32{100, 200, 300}, 4)
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: []uint32{200},
	}))
	defer ts.Close()

	reg := telemetry.New()
	sink := &telemetry.RecordingSink{}
	reg.SetSpanSink(sink)
	m := NewMetrics(reg)
	var stats CrawlStats
	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 0, RetryBackoff: time.Millisecond})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		Partial:         true,
		NeighborRetries: 2,
		Metrics:         m,
		Stats:           &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Partial {
		t.Fatal("snapshot not flagged partial")
	}

	if got := m.neighbors.With("ok").Value(); got != 2 {
		t.Errorf("neighbors{ok} = %d, want 2", got)
	}
	if got := m.neighbors.With("failed").Value(); got != 1 {
		t.Errorf("neighbors{failed} = %d, want 1", got)
	}
	if got := m.neighborRetries.Value(); got != 2 {
		t.Errorf("neighbor retries = %d, want 2 (3 attempts on AS200)", got)
	}
	if got := m.neighborSeconds.Count(); got != 3 {
		t.Errorf("neighbor duration observations = %d, want 3", got)
	}
	if got := m.snapshots.With("partial").Value(); got != 1 {
		t.Errorf("snapshots{partial} = %d, want 1", got)
	}
	if got := m.memberErrors.Value(); got != 1 {
		t.Errorf("member errors = %d, want 1", got)
	}

	if stats.Neighbors != 3 || stats.Failed != 1 || stats.Skipped != 0 {
		t.Errorf("stats = %+v, want 3 neighbors / 1 failed / 0 skipped", stats)
	}
	if stats.Retries != 2 {
		t.Errorf("stats.Retries = %d, want 2", stats.Retries)
	}
	if stats.SlowestASN == 0 || stats.Slowest <= 0 {
		t.Errorf("slowest neighbor not recorded: %+v", stats)
	}
	if stats.BudgetRemaining != -1 || stats.BudgetTripped {
		t.Errorf("budget stats = %+v, want unlimited/untripped", stats)
	}

	// Spans: one per crawled neighbor plus the crawl itself.
	if got := len(sink.Named("collector.neighbor")); got != 3 {
		t.Errorf("neighbor spans = %d, want 3", got)
	}
	crawls := sink.Named("collector.collect")
	if len(crawls) != 1 {
		t.Fatalf("crawl spans = %d, want 1", len(crawls))
	}
	outcome := ""
	for _, a := range crawls[0].Attrs {
		if a.Key == "outcome" {
			outcome = a.Value
		}
	}
	if outcome != "partial" {
		t.Errorf("crawl span outcome = %q, want partial", outcome)
	}
}

// TestCollectMetricsBudgetTrip: the circuit breaker must show up in
// the trip counter, the remaining gauge, and the skipped outcomes.
func TestCollectMetricsBudgetTrip(t *testing.T) {
	server := degradedFixture(t, []uint32{100, 200, 300, 400}, 2)
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: []uint32{100, 200},
	}))
	defer ts.Close()

	reg := telemetry.New()
	m := NewMetrics(reg)
	var stats CrawlStats
	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 0})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		Partial:     true,
		ErrorBudget: 2,
		Metrics:     m,
		Stats:       &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.MemberErrors) != 4 {
		t.Fatalf("member errors = %d, want 4 (2 failed + 2 skipped)", len(snap.MemberErrors))
	}
	if got := m.budgetTrips.Value(); got != 1 {
		t.Errorf("budget trips = %d, want 1", got)
	}
	if got := m.budgetRemaining.Value(); got != 0 {
		t.Errorf("budget remaining gauge = %d, want 0", got)
	}
	if got := m.neighbors.With("skipped").Value(); got != 2 {
		t.Errorf("neighbors{skipped} = %d, want 2", got)
	}
	if !stats.BudgetTripped || stats.BudgetRemaining != 0 {
		t.Errorf("stats budget = %+v, want tripped with 0 left", stats)
	}
	if stats.Skipped != 2 || stats.Failed != 2 {
		t.Errorf("stats = %+v, want 2 failed / 2 skipped", stats)
	}
}

// TestCollectMetricsCheckpointSaves: checkpointed crawls must observe
// one save per completed neighbor.
func TestCollectMetricsCheckpointSaves(t *testing.T) {
	server := degradedFixture(t, []uint32{100, 200}, 2)
	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()

	reg := telemetry.New()
	m := NewMetrics(reg)
	client := lg.NewClient(ts.URL, lg.ClientOptions{})
	dir := t.TempDir()
	_, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		Partial:        true,
		CheckpointPath: dir + "/ckpt.json",
		Metrics:        m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.checkpointSeconds.Count(); got != 2 {
		t.Errorf("checkpoint save observations = %d, want 2", got)
	}
	if got := m.snapshots.With("ok").Value(); got != 1 {
		t.Errorf("snapshots{ok} = %d, want 1", got)
	}
}

// TestCollectAllSharedMetrics: one instrument set shared by every
// target's options, Result.Stats populated, HTTP request counts.
func TestCollectAllSharedMetrics(t *testing.T) {
	server := degradedFixture(t, []uint32{100, 200}, 2)
	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()

	reg := telemetry.New()
	m := NewMetrics(reg)
	lgm := lg.NewMetrics(reg)
	var targets []Target
	for _, name := range []string{"A", "B"} {
		targets = append(targets, Target{
			Name: name, URL: ts.URL,
			Options: lg.ClientOptions{Metrics: lgm},
			Collect: CollectOptions{Metrics: m},
		})
	}
	results := CollectAll(context.Background(), targets, "2021-10-04")
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Target.Name, r.Err)
		}
		if r.Stats.Neighbors != 2 {
			t.Errorf("%s: stats.Neighbors = %d, want 2", r.Target.Name, r.Stats.Neighbors)
		}
		if r.Requests == 0 {
			t.Errorf("%s: requests = 0", r.Target.Name)
		}
	}
	if got := m.snapshots.With("ok").Value(); got != 2 {
		t.Errorf("snapshots{ok} = %d, want 2", got)
	}
	if got := m.neighbors.With("ok").Value(); got != 4 {
		t.Errorf("neighbors{ok} = %d, want 4", got)
	}
	// Each crawl: status + neighbors + 2 route listings = 4 wire requests.
	if got := results[0].Requests + results[1].Requests; got != 8 {
		t.Errorf("total http requests = %d, want 8", got)
	}
	if got := reg.Snapshot()["ixplight_lg_http_requests_total"]; got != int64(8) {
		t.Errorf("shared LG instruments counted %v http requests, want 8", got)
	}
	if got := m.targetsBusy.Value(); got != 0 {
		t.Errorf("targets busy gauge = %d after run", got)
	}
	if got := m.workersBusy.Value(); got != 0 {
		t.Errorf("workers busy gauge = %d after run", got)
	}
}
