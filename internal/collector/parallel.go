package collector

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/lg"
)

// neighborOutcome is one crawl-plan entry's result. attempted is false
// when the crawl stopped (budget trip, strict-mode failure or
// cancellation) before the neighbor's first request went out — the
// replay in CollectWithOptions decides what that means.
type neighborOutcome struct {
	attempted bool
	routes    []bgp.Route
	attempts  int
	dur       time.Duration
	err       error
}

// checkpointWriter serializes checkpoint updates: the crawl's workers
// all mark progress through one writer, so the
// checkpoint file is written by exactly one goroutine at a time and
// every save sees a consistent Done/Routes pair.
type checkpointWriter struct {
	mu   sync.Mutex
	prog *Checkpoint
	path string
	m    *Metrics
}

// markDone records one completed neighbor and persists the checkpoint
// when a path is configured. A nil writer (a crawl nobody can resume)
// records nothing.
func (w *checkpointWriter) markDone(asn uint32, routes []bgp.Route) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.prog.MarkDone(asn, routes)
	if w.path == "" {
		return nil
	}
	t0 := w.m.now()
	err := w.prog.Save(w.path)
	w.m.checkpointSaved(t0)
	return err
}

// crawlNeighbors fans the crawl plan across a worker pool. Workers
// claim neighbors strictly in plan order, so at any moment the
// attempted set is a prefix of the plan plus at most workers-1
// in-flight entries. A frontier walk over the contiguous completed
// prefix re-runs the sequential budget arithmetic as results land;
// once it proves the sequential crawl would have stopped (budget
// tripped, strict-mode failure, checkpoint save error), no new
// neighbors are claimed — in-flight ones drain and the replay demotes
// any overshoot to skipped. One worker is the single-connection crawl:
// it claims the next neighbor only after the previous one settled, so
// a dead LG sees no request past the point where the crawl stops.
func crawlNeighbors(ctx context.Context, client *lg.Client, crawl []uint32, opts CollectOptions, saver *checkpointWriter, workers int) ([]neighborOutcome, error) {
	outcomes := make([]neighborOutcome, len(crawl))
	var (
		mu          sync.Mutex
		next        int
		frontier    int
		consecutive int
		stopped     bool
		saveErr     error
		completed   = make([]bool, len(crawl))
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if stopped || next >= len(crawl) || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				asn := crawl[i]
				routes, attempts, dur, err := crawlNeighbor(ctx, client, asn, opts.NeighborRetries, opts.Metrics)
				var serr error
				if err == nil {
					serr = saver.markDone(asn, routes)
				}

				mu.Lock()
				outcomes[i] = neighborOutcome{attempted: true, routes: routes, attempts: attempts, dur: dur, err: err}
				completed[i] = true
				if serr != nil {
					if saveErr == nil {
						saveErr = serr
					}
					stopped = true
				}
				if err != nil && (!opts.Partial || ctx.Err() != nil) {
					stopped = true
				}
				for frontier < len(crawl) && completed[frontier] {
					if outcomes[frontier].err != nil {
						consecutive++
						if opts.ErrorBudget > 0 && consecutive >= opts.ErrorBudget {
							stopped = true
						}
					} else {
						consecutive = 0
					}
					frontier++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if saveErr != nil {
		return nil, fmt.Errorf("collector: checkpoint: %w", saveErr)
	}
	return outcomes, nil
}
