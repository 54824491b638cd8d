// Command collect crawls a looking glass into a snapshot file — the
// §3 collection step, with the fault tolerance the twelve-week
// campaign needed: degraded (partial) snapshots, per-target error
// budgets, and checkpoint/resume.
//
// Usage:
//
//	collect -url http://localhost:8080 [-date 2021-10-04] [-out ./data]
//	        [-interval 100ms] [-retries 5] [-partial] [-resume]
//	        [-checkpoint path] [-neighbor-parallel 1] [-neighbor-retries 1]
//	        [-error-budget 0] [-request-timeout 30s] [-metrics-addr :9100]
//	        [-trace path|none]
//
// Every run records crawl telemetry: an end-of-run summary is logged,
// and with -metrics-addr the registry is served live on /metrics and
// /debug/pprof while the crawl runs. Every run also writes a
// hierarchical trace ledger — one span per crawl, neighbor and LG
// request — to <out>/trace.jsonl (kept even when the crawl fails;
// -trace relocates it, -trace none disables it). Inspect it with
// cmd/tracecat.
//
// -checkpoint persists crawl progress after every completed neighbor
// whenever it is given; -partial and -resume use
// <out>/checkpoint-<date>.json when it is not.
//
// Each run appends the crawled day to the IXP's chain in -out
// (collector.Append): the IXP's first day as a full binary snapshot
// (.bin), every later one as a .delta against the IXP's newest day in
// -out whose file opens, read as the loader reads it. A date -out
// already holds is replaced, the later days of its chain encoded again
// onto it, so -resume finishes a -partial day; a missed earlier date is
// back-filled as a .bin of its own.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/lg"
	"ixplight/internal/telemetry"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "looking glass base URL")
	date := flag.String("date", time.Now().UTC().Format("2006-01-02"), "snapshot date stamp")
	out := flag.String("out", "./data", "output directory")
	interval := flag.Duration("interval", 50*time.Millisecond, "minimum delay between LG requests")
	retries := flag.Int("retries", 5, "retries per failed request")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall collection deadline")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 = none)")
	partial := flag.Bool("partial", false, "keep degraded snapshots: record failed neighbors instead of aborting")
	resume := flag.Bool("resume", false, "resume from the checkpoint file if one exists")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for crawl progress (default <out>/checkpoint-<date>.json)")
	neighborRetries := flag.Int("neighbor-retries", 1, "extra crawl attempts per failing neighbor")
	errorBudget := flag.Int("error-budget", 0, "consecutive neighbor failures before abandoning the LG (0 = unlimited)")
	neighborParallel := flag.Int("neighbor-parallel", 1, "concurrent per-neighbor route crawls (1 = sequential; snapshots are identical either way)")
	metricsAddr := flag.String("metrics-addr", "", "optional telemetry listen address serving /metrics and /debug/pprof during the crawl")
	tracePath := flag.String("trace", "", `trace ledger path (default <out>/trace.jsonl, "none" to disable)`)
	flag.Parse()

	reg := telemetry.New()
	lgMetrics := lg.NewMetrics(reg)
	colMetrics := collector.NewMetrics(reg)
	// The trace ledger is kept even when the crawl fails — the span
	// tree is the post-mortem.
	ledgerPath := *tracePath
	if ledgerPath == "" {
		ledgerPath = filepath.Join(*out, "trace.jsonl")
	}
	var traceSink *telemetry.JSONLSink
	if ledgerPath != "none" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		sink, err := telemetry.NewJSONLSink(ledgerPath, 0)
		if err != nil {
			log.Fatal(err)
		}
		traceSink = sink
		reg.SetSpanSink(sink)
	}
	// fatal archives the trace ledger before exiting: log.Fatal calls
	// os.Exit, so deferred closes never run on the failure path.
	fatal := func(err error) {
		archiveTrace(traceSink, ledgerPath)
		log.Fatal(err)
	}
	if *metricsAddr != "" {
		go func() {
			log.Printf("telemetry on %s (/metrics, /debug/pprof)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, reg.Handler()); err != nil {
				log.Printf("telemetry listener: %v", err)
			}
		}()
	}

	client := lg.NewClient(*url, lg.ClientOptions{
		MinInterval:    *interval,
		MaxRetries:     *retries,
		RetryBackoff:   100 * time.Millisecond,
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *neighborParallel,
		Metrics:        lgMetrics,
	})
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	ckptPath := checkpointPath(*checkpoint, *out, *date, *partial || *resume)
	var stats collector.CrawlStats
	opts := collector.CollectOptions{
		Partial:             *partial,
		NeighborRetries:     *neighborRetries,
		ErrorBudget:         *errorBudget,
		CheckpointPath:      ckptPath,
		NeighborParallelism: *neighborParallel,
		Metrics:             colMetrics,
		Stats:               &stats,
	}
	if *resume {
		// Lenient resume: a corrupt checkpoint (crash mid-write, torn
		// copy) is logged and moved aside, never fatal — only real I/O
		// errors abort.
		ck, err := collector.ResumeCheckpoint(ckptPath, log.Printf)
		if err != nil {
			fatal(err)
		}
		if ck != nil {
			log.Printf("resuming from %s: %d neighbors done, %d routes", ckptPath, len(ck.Done), len(ck.Routes))
			opts.Checkpoint = ck
		} else {
			log.Printf("no checkpoint at %s, starting fresh", ckptPath)
		}
	}

	start := time.Now()
	snap, err := collector.CollectWithOptions(ctx, client, *date, opts)
	// Every span has ended by now (CollectWithOptions returned), so the
	// ledger is complete; close it here so it survives a failed crawl.
	archiveTrace(traceSink, ledgerPath)
	traceSink = nil
	if err != nil {
		log.Fatal(err)
	}
	path, err := collector.Append(*out, snap, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	if snap.Partial {
		log.Printf("PARTIAL snapshot: %d neighbors missing", len(snap.MemberErrors))
		for _, me := range snap.MemberErrors {
			log.Printf("  AS%d [%s] after %d attempts: %s", me.ASN, me.Stage, me.Attempts, me.Err)
		}
	}
	log.Printf("collected %s: %d members, %d routes, %d filtered (%d requests, %v) → %s",
		snap.IXP, len(snap.Members), len(snap.Routes), snap.FilteredCount,
		client.HTTPRequests(), time.Since(start).Round(time.Millisecond), path)
	budget := "no budget"
	if stats.BudgetTripped {
		budget = "budget tripped"
	} else if stats.BudgetRemaining >= 0 {
		budget = fmt.Sprintf("budget %d left", stats.BudgetRemaining)
	}
	log.Printf("telemetry: %d calls over %d HTTP requests, %d/%d neighbors ok, %d neighbor retries, slowest AS%d %v, %s",
		client.Requests(), client.HTTPRequests(),
		stats.Neighbors-stats.Failed-stats.Skipped, stats.Neighbors,
		stats.Retries, stats.SlowestASN, stats.Slowest.Round(time.Millisecond), budget)
}

// checkpointPath is where the crawl persists its progress: the
// -checkpoint flag whenever it is set, else <out>/checkpoint-<date>.json
// for a crawl that can use one (defaulted: -partial or -resume), else
// nowhere.
func checkpointPath(flagPath, out, date string, defaulted bool) string {
	switch {
	case flagPath != "":
		return flagPath
	case defaulted:
		return filepath.Join(out, fmt.Sprintf("checkpoint-%s.json", date))
	}
	return ""
}

// archiveTrace flushes and closes the trace ledger, logging where it
// landed (inspect it with `tracecat <path>`). Safe to call with a nil
// sink and idempotent via the caller nilling traceSink after use.
func archiveTrace(sink *telemetry.JSONLSink, path string) {
	if sink == nil {
		return
	}
	if err := sink.Close(); err != nil {
		log.Printf("trace ledger: %v", err)
		return
	}
	if n := sink.Dropped(); n > 0 {
		log.Printf("trace ledger → %s (%d spans dropped by size cap)", path, n)
		return
	}
	log.Printf("trace ledger → %s", path)
}
