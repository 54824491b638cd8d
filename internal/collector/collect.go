package collector

import (
	"context"
	"fmt"
	"os"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/lg"
	"ixplight/internal/rsconfig"
)

// CollectOptions tunes the fault tolerance of one LG crawl. The zero
// value reproduces the strict all-or-nothing behaviour: the first
// neighbor failure aborts the snapshot.
type CollectOptions struct {
	// Partial switches to degraded collection: a neighbor whose routes
	// cannot be fetched is recorded in Snapshot.MemberErrors instead
	// of aborting the whole snapshot.
	Partial bool
	// NeighborRetries re-crawls a failing neighbor this many extra
	// times, on top of the client's own per-request retries.
	NeighborRetries int
	// ErrorBudget trips a circuit breaker after this many consecutive
	// neighbor failures: the LG is abandoned, what was collected is
	// kept, and the remaining neighbors are recorded as skipped.
	// 0 means no budget (crawl every neighbor regardless).
	ErrorBudget int
	// Checkpoint resumes a previous crawl: neighbors it lists as done
	// are not re-crawled and their routes are taken from it. The
	// checkpoint must match the crawl's IXP and date.
	Checkpoint *Checkpoint
	// CheckpointPath persists progress after every completed neighbor
	// when set. The file is removed once a snapshot completes with no
	// member errors.
	CheckpointPath string
	// NeighborParallelism fans the per-neighbor route crawls across
	// this many workers (0 or 1 = one neighbor at a time). The snapshot
	// is byte-identical to a sequential crawl for every worker count:
	// routes are merged in neighbor order and the error budget is
	// replayed in neighbor order, so a breaker that would have tripped
	// sequentially trips at the same neighbor here — successes a
	// sequential crawl would never have attempted are demoted to
	// skipped (their routes still reach the checkpoint, so nothing
	// fetched is wasted on resume). Effective parallelism is capped by
	// the client's MaxInFlight and checkpoint saves are serialized
	// through a single writer.
	NeighborParallelism int
	// Metrics records crawl telemetry when set (see NewMetrics). Nil
	// disables instrumentation at zero cost.
	Metrics *Metrics
	// Stats, when non-nil, is filled with a per-crawl summary (retries,
	// slowest neighbor, budget state) whenever the crawl produces a
	// snapshot.
	Stats *CrawlStats
}

// Collect crawls a looking glass into one snapshot, following the §3
// recipe: fetch the peer summary first, then every peer's accepted
// routes, recording only the count of filtered ones. The first
// neighbor failure aborts the crawl; use CollectWithOptions for
// degraded collection.
func Collect(ctx context.Context, client *lg.Client, date string) (*Snapshot, error) {
	return CollectWithOptions(ctx, client, date, CollectOptions{})
}

// CollectWithOptions crawls a looking glass with the given fault
// tolerance. In Partial mode the returned snapshot may be degraded:
// Snapshot.Partial is set and Snapshot.MemberErrors explains every
// neighbor whose routes are missing. Status or neighbor-summary
// failures are always fatal — without the member list there is no
// snapshot to degrade.
func CollectWithOptions(ctx context.Context, client *lg.Client, date string, opts CollectOptions) (snap *Snapshot, err error) {
	m := opts.Metrics
	ctx, sp := m.startSpan(ctx, "collector.collect")
	defer func() {
		switch {
		case err != nil:
			m.snapshotDone("failed")
			sp.SetAttr("outcome", "failed")
		case snap.Partial:
			m.snapshotDone("partial")
			sp.SetAttr("outcome", "partial")
		default:
			m.snapshotDone("ok")
			sp.SetAttr("outcome", "ok")
		}
		sp.End()
	}()
	status, err := client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("collector: status: %w", err)
	}
	sp.SetAttr("ixp", status.IXP)
	sp.SetAttr("date", date)
	neighbors, err := client.Neighbors(ctx)
	if err != nil {
		return nil, fmt.Errorf("collector: neighbors: %w", err)
	}
	prog := opts.Checkpoint
	if prog != nil && !prog.Matches(status.IXP, date) {
		return nil, fmt.Errorf("collector: checkpoint is for %s/%s, not %s/%s",
			prog.IXP, prog.Date, status.IXP, date)
	}
	if prog == nil {
		prog = &Checkpoint{IXP: status.IXP, Date: date}
	}
	done := prog.DoneSet()

	snap = &Snapshot{IXP: status.IXP, Date: date}
	// The snapshot's routes are merged from blocks: what the checkpoint
	// carried, then every crawled neighbor's listing in neighbor order.
	blocks := [][]bgp.Route{prog.Routes}
	// The crawl plan: every neighbor that actually needs a route
	// listing, in neighbor order. Checkpointed neighbors never reach
	// the plan, so a resumed crawl issues zero requests for them no
	// matter how many workers run.
	var crawl []uint32
	for _, n := range neighbors {
		snap.Members = append(snap.Members, Member{
			ASN: n.ASN, Name: n.Description, IPv4: n.IPv4, IPv6: n.IPv6,
		})
		snap.FilteredCount += n.RoutesFiltered
		if done[n.ASN] || n.RoutesAccepted == 0 {
			continue
		}
		crawl = append(crawl, n.ASN)
	}

	// Progress is recorded only for a caller who can use it: one who
	// passed a checkpoint to extend or a path to persist it at. Otherwise
	// nobody would ever read the copy of every route it accumulates.
	var saver *checkpointWriter
	if opts.Checkpoint != nil || opts.CheckpointPath != "" {
		saver = &checkpointWriter{prog: prog, path: opts.CheckpointPath, m: m}
	}
	workers := max(opts.NeighborParallelism, 1)
	workers = min(workers, client.MaxInFlight(), len(crawl))
	outcomes, err := crawlNeighbors(ctx, client, crawl, opts, saver, workers)
	if err != nil {
		return nil, err
	}

	// Replay the outcomes in neighbor order, so the budget arithmetic —
	// and therefore the snapshot — is identical for every worker count.
	stats := CrawlStats{Neighbors: len(crawl), BudgetRemaining: -1}
	consecutive, tripped := 0, false
	for i, asn := range crawl {
		o := outcomes[i]
		if o.attempted {
			stats.Retries += o.attempts - 1
			if o.dur > stats.Slowest {
				stats.Slowest, stats.SlowestASN = o.dur, asn
			}
		}
		if tripped {
			snap.MemberErrors = append(snap.MemberErrors, MemberError{
				ASN: asn, Stage: StageSkipped,
				Err: fmt.Sprintf("error budget of %d consecutive failures exhausted", opts.ErrorBudget),
			})
			stats.Skipped++
			m.neighborOutcome("skipped")
			m.memberError()
			continue
		}
		if !o.attempted {
			// Only a cancelled crawl leaves a neighbor unattempted
			// without tripping the budget first.
			cause := ctx.Err()
			if cause == nil {
				cause = context.Canceled
			}
			return nil, fmt.Errorf("collector: routes of AS%d: %w", asn, cause)
		}
		if o.err != nil {
			if !opts.Partial || ctx.Err() != nil {
				return nil, fmt.Errorf("collector: routes of AS%d: %w", asn, o.err)
			}
			snap.MemberErrors = append(snap.MemberErrors, MemberError{
				ASN: asn, Stage: StageRoutes, Err: o.err.Error(), Attempts: o.attempts,
			})
			stats.Failed++
			m.neighborOutcome("failed")
			m.memberError()
			consecutive++
			if opts.ErrorBudget > 0 && consecutive >= opts.ErrorBudget {
				tripped = true
			}
			continue
		}
		consecutive = 0
		m.neighborOutcome("ok")
		blocks = append(blocks, o.routes)
	}
	stats.BudgetTripped = tripped
	if opts.ErrorBudget > 0 {
		stats.BudgetRemaining = opts.ErrorBudget - consecutive
		if tripped {
			stats.BudgetRemaining = 0
		}
		m.budget(stats.BudgetRemaining, tripped)
	}
	if opts.Stats != nil {
		*opts.Stats = stats
	}
	snap.Partial = len(snap.MemberErrors) > 0
	snap.sortMembers()
	snap.Routes = mergeRouteBlocks(blocks)
	if !snap.Partial && opts.CheckpointPath != "" {
		// The crawl is complete; the resume state has served its purpose.
		os.Remove(opts.CheckpointPath)
	}
	return snap, nil
}

// crawlNeighbor fetches one neighbor's accepted routes with
// neighbor-level retries, reporting how many attempts were made and
// how long the whole crawl (retries included) took.
func crawlNeighbor(ctx context.Context, client *lg.Client, asn uint32, retries int, m *Metrics) (routes []bgp.Route, attempts int, dur time.Duration, err error) {
	m.workerStart()
	defer m.workerDone()
	ctx, sp := m.startSpan(ctx, "collector.neighbor")
	sp.SetAttrInt("asn", int64(asn))
	t0 := time.Now()
	defer func() {
		dur = time.Since(t0)
		m.neighborCrawled(dur, attempts)
		sp.SetAttrInt("attempts", int64(attempts))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}()
	var lastErr error
	for attempt := 1; attempt <= retries+1; attempt++ {
		routes, err := client.RoutesReceived(ctx, asn)
		if err == nil {
			return routes, attempt, 0, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, attempt, 0, lastErr
		}
	}
	return nil, retries + 1, 0, lastErr
}

// FetchDictionary builds the §3 dictionary for one IXP the way the
// paper does: fetch the route server's configuration text from the LG,
// parse its community definitions, and union them with the website
// documentation (which the caller supplies — it is scraped, not served
// by the LG).
func FetchDictionary(ctx context.Context, client *lg.Client, websiteEntries []dictionary.Entry) (*dictionary.Dictionary, error) {
	status, err := client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("collector: status: %w", err)
	}
	text, err := client.ConfigRaw(ctx)
	if err != nil {
		return nil, fmt.Errorf("collector: config: %w", err)
	}
	defs, err := rsconfig.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("collector: parse config: %w", err)
	}
	entries := dictionary.UnionEntries(rsconfig.Entries(status.IXP, defs), websiteEntries)
	return dictionary.FromEntries(status.IXP, entries), nil
}
