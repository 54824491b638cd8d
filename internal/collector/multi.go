package collector

import (
	"context"
	"sync"
	"time"

	"ixplight/internal/lg"
)

// Target is one looking glass to crawl in a multi-IXP collection run.
type Target struct {
	// Name labels the target in results (usually the IXP name).
	Name string
	// URL is the LG base URL.
	URL string
	// Options tune this target's client. Politeness is per-LG: the §3
	// single-connection rule applies to each looking glass, not to the
	// collection as a whole.
	Options lg.ClientOptions
	// Collect tunes this target's fault tolerance (degraded
	// collection, error budget, checkpoint/resume). Checkpoint paths
	// must be distinct per target.
	Collect CollectOptions
}

// Result is the outcome of crawling one target. Exactly one of
// Snapshot/Err is set; a snapshot may be partial (degraded but kept).
type Result struct {
	Target   Target
	Snapshot *Snapshot
	Err      error
	// Partial mirrors Snapshot.Partial: the crawl finished but some
	// neighbors' routes are missing (see Snapshot.MemberErrors).
	Partial  bool
	Duration time.Duration
	// Requests counts HTTP requests sent to the LG, retries and
	// pagination included (lg.Client.HTTPRequests).
	Requests int
	// Calls counts logical API calls admitted by the client (status,
	// neighbors, one routes listing each — lg.Client.Requests). The
	// soak harness reconciles this against the crawl plan: a resumed
	// crawl must spend exactly 2 + remaining-neighbors calls.
	Calls int
	// Stats is the per-crawl summary (retries, slowest neighbor, budget
	// state). Zero when the crawl failed before producing a snapshot.
	Stats CrawlStats
}

// CollectAll crawls every target at once and returns one result per
// target, in target order. Each looking glass is bounded by its own
// client (Options.MaxInFlight caps the target's neighbor workers). A
// failing LG does not abort the others — the paper's collection had to
// tolerate individual LG outages — and targets in degraded mode
// contribute partial snapshots instead of failures.
func CollectAll(ctx context.Context, targets []Target, date string) []Result {
	results := make([]Result, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt Target) {
			defer wg.Done()
			start := time.Now()
			collectOpts := tgt.Collect
			if collectOpts.Stats == nil {
				collectOpts.Stats = new(CrawlStats)
			}
			collectOpts.Metrics.targetStart()
			client := lg.NewClient(tgt.URL, tgt.Options)
			snap, err := CollectWithOptions(ctx, client, date, collectOpts)
			collectOpts.Metrics.targetDone()
			results[i] = Result{
				Target:   tgt,
				Snapshot: snap,
				Err:      err,
				Partial:  snap != nil && snap.Partial,
				Duration: time.Since(start),
				Requests: client.HTTPRequests(),
				Calls:    client.Requests(),
				Stats:    *collectOpts.Stats,
			}
		}(i, tgt)
	}
	wg.Wait()
	return results
}
