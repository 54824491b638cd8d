package soak

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// Config tunes one soak run. The zero value is not runnable; use
// DefaultConfig as the base.
type Config struct {
	// IXPs is how many simulated IXPs to run (capped at the number of
	// calibrated profiles).
	IXPs int
	// Kills is how many of them are killed and restarted mid-crawl
	// per round.
	Kills int
	// Rounds repeats the chaos cycle (degrade → kill → resume).
	Rounds int
	// Seed drives everything random: workload generation, the chaos
	// schedule and the flaky middleware. Same seed, same run.
	Seed int64
	// Scale shrinks the generated workloads (1.0 = the paper's
	// calibrated sizes — far too big for a quick soak).
	Scale float64
	// NeighborParallelism fans each crawl's route fetches out.
	NeighborParallelism int
	// Dir holds checkpoint files (required).
	Dir string
	// TracePath is where the run's trace ledger is written (empty =
	// <Dir>/trace.jsonl). Tracing is always on in a soak: every phase
	// runs under one root "soak.phase" span, and after each phase the
	// harness validates the ledger's shape (see checkLedger).
	TracePath string
	// Logf, when set, narrates the run.
	Logf func(format string, args ...any)
}

// soakDate stamps the collected snapshots.
const soakDate = "2021-10-04"

// DefaultConfig is the quick deterministic soak: three IXPs, two
// kill/restart cycles, one round, small workloads.
func DefaultConfig() Config {
	return Config{
		IXPs:                3,
		Kills:               2,
		Rounds:              1,
		Seed:                1,
		Scale:               0.004,
		NeighborParallelism: 4,
	}
}

// Report is one soak run's outcome: the chaos script it played, the
// final snapshot digests, and every invariant verdict.
type Report struct {
	Schedule string
	// Digests maps IXP name → sha256 of the binary-codec encoding of
	// the final (post-resume) snapshot. Reproducible per seed.
	Digests map[string]string
	Checks  []CheckResult
	// Requests is the total client-side HTTP request count across all
	// phases.
	Requests int
	// TracePath is where the run's trace ledger landed.
	TracePath string
	Duration  time.Duration
}

// OK reports whether every invariant held.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Failed returns the failing checks.
func (r *Report) Failed() []CheckResult {
	var out []CheckResult
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// harness carries one run's live state.
type harness struct {
	cfg    Config
	ixps   []*SimIXP
	http   *http.Client
	reg    *telemetry.Registry
	lgm    *lg.Metrics
	colm   *collector.Metrics
	report *Report

	// trace ledger state: the sink every span lands in, its path, and
	// how many ledger spans earlier phases already validated.
	sink       *telemetry.JSONLSink
	tracePath  string
	ledgerSeen int

	// observed totals for the final metrics reconciliation
	httpRequests       int
	calls              int
	memberErrors       int
	planNeighbors      int
	snapshotsByOutcome map[string]int
	neighborOutcomes   int
}

func (h *harness) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

func (h *harness) check(c CheckResult) {
	h.report.Checks = append(h.report.Checks, c)
	if !c.OK {
		h.logf("FAIL %s %s: %s", c.Name, c.IXP, c.Detail)
	}
}

// clientOptions is the crawl tuning every phase shares: fast retries
// (chaos makes them constant), a request timeout that cuts hangs off,
// and the harness's shared transport and instruments.
func (h *harness) clientOptions() lg.ClientOptions {
	return lg.ClientOptions{
		MaxRetries:     3,
		RetryBackoff:   2 * time.Millisecond,
		MaxBackoff:     25 * time.Millisecond,
		RequestTimeout: 400 * time.Millisecond,
		MaxInFlight:    h.cfg.NeighborParallelism,
		HTTPClient:     h.http,
		Metrics:        h.lgm,
	}
}

// targets builds the multi-IXP crawl target list over the live
// listeners. build tweaks each target's collect options.
func (h *harness) targets(build func(i int, c *collector.CollectOptions)) []collector.Target {
	out := make([]collector.Target, len(h.ixps))
	for i, sim := range h.ixps {
		copts := collector.CollectOptions{
			NeighborParallelism: h.cfg.NeighborParallelism,
			Metrics:             h.colm,
		}
		if build != nil {
			build(i, &copts)
		}
		out[i] = collector.Target{
			Name:    sim.Name,
			URL:     sim.URL(),
			Options: h.clientOptions(),
			Collect: copts,
		}
	}
	return out
}

// account folds one phase's results into the totals the final
// /metrics reconciliation compares against.
func (h *harness) account(results []collector.Result) {
	for _, r := range results {
		h.httpRequests += r.Requests
		h.calls += r.Calls
		switch {
		case r.Err != nil:
			h.snapshotsByOutcome["failed"]++
		case r.Partial:
			h.snapshotsByOutcome["partial"]++
		default:
			h.snapshotsByOutcome["ok"]++
		}
		if r.Snapshot != nil {
			h.memberErrors += len(r.Snapshot.MemberErrors)
		}
		h.planNeighbors += r.Stats.Neighbors
	}
	h.report.Requests = h.httpRequests
}

// Run executes one full soak: reference crawl, then per round a
// degraded crawl under scripted chaos, a kill mid-crawl, and a
// restart+resume — with invariants checked after every phase and the
// telemetry reconciled at the end.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("soak: Config.Dir is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	profiles := ixpgen.Profiles()
	if cfg.IXPs <= 0 || cfg.IXPs > len(profiles) {
		cfg.IXPs = len(profiles)
	}
	if cfg.Kills > cfg.IXPs {
		cfg.Kills = cfg.IXPs
	}

	start := time.Now()
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.NeighborParallelism + 2}
	defer transport.CloseIdleConnections()
	reg := telemetry.New()
	h := &harness{
		cfg:                cfg,
		http:               &http.Client{Transport: transport},
		reg:                reg,
		lgm:                lg.NewMetrics(reg),
		colm:               collector.NewMetrics(reg),
		report:             &Report{Digests: make(map[string]string)},
		snapshotsByOutcome: make(map[string]int),
	}

	// Every soak runs traced: a per-run ledger, validated after each
	// phase, is itself one of the invariants under test.
	h.tracePath = cfg.TracePath
	if h.tracePath == "" {
		h.tracePath = filepath.Join(cfg.Dir, "trace.jsonl")
	}
	sink, err := telemetry.NewJSONLSink(h.tracePath, 0)
	if err != nil {
		return nil, fmt.Errorf("soak: trace ledger: %w", err)
	}
	defer sink.Close()
	h.sink = sink
	reg.SetSpanSink(sink)
	h.report.TracePath = h.tracePath

	// Boot the fleet: real listeners on ephemeral ports.
	for i := 0; i < cfg.IXPs; i++ {
		sim, err := NewSimIXP(profiles[i], cfg.Seed+int64(i), cfg.Scale)
		if err != nil {
			return nil, err
		}
		if err := sim.Start(); err != nil {
			return nil, err
		}
		defer sim.Stop()
		h.ixps = append(h.ixps, sim)
		h.logf("ixp %d: %s on %s (%d peers)", i, sim.Name, sim.URL(), len(sim.RS.Peers()))
	}

	// The telemetry surface the final reconciliation scrapes, on a
	// real socket like everything else.
	metricsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soak: metrics listener: %w", err)
	}
	metricsSrv := &http.Server{Handler: reg.Handler()}
	go metricsSrv.Serve(metricsLn)
	defer metricsSrv.Close()
	metricsURL := "http://" + metricsLn.Addr().String() + "/metrics"

	// Phase 0: chaos-free reference crawl of every IXP. Its snapshots
	// are the ground truth every later invariant compares against, and
	// its deterministic shape feeds the schedule generator.
	h.logf("phase 0: reference crawl (%d IXPs)", len(h.ixps))
	var refResults []collector.Result
	h.phase(ctx, "reference", func(pctx context.Context) {
		refResults = collector.CollectAll(pctx, h.targets(nil), soakDate)
	})
	refs := make([]*collector.Snapshot, len(h.ixps))
	infos := make([]planInfo, len(h.ixps))
	refServerTotals := make([]int, len(h.ixps))
	for i, r := range refResults {
		if r.Err != nil {
			return nil, fmt.Errorf("soak: reference crawl %s: %w", r.Target.Name, r.Err)
		}
		if r.Partial {
			return nil, fmt.Errorf("soak: reference crawl %s came back partial", r.Target.Name)
		}
		refs[i] = r.Snapshot
		refServerTotals[i] = h.ixps[i].Total()
		planSet := make(map[uint32]bool)
		for _, rt := range r.Snapshot.Routes {
			planSet[rt.PeerAS()] = true
		}
		for asn := range planSet {
			infos[i].planASNs = append(infos[i].planASNs, asn)
		}
		sort.Slice(infos[i].planASNs, func(a, b int) bool { return infos[i].planASNs[a] < infos[i].planASNs[b] })
		infos[i].serverRequests = refServerTotals[i]
		d, err := digest(r.Snapshot)
		if err != nil {
			return nil, err
		}
		h.report.Digests[r.Target.Name] = d
		h.check(CheckResult{"reference", r.Target.Name, true,
			fmt.Sprintf("%d members, %d routes, %d plan neighbors", len(r.Snapshot.Members), len(r.Snapshot.Routes), r.Stats.Neighbors)})
		for _, c := range checkCodecs(r.Target.Name, r.Snapshot) {
			h.check(c)
		}
	}
	h.account(refResults)

	// The whole run's chaos is scripted here, before any of it plays
	// out: a pure function of the seed and the reference shape.
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := buildSchedule(rng, infos, cfg.Rounds, cfg.Kills)
	h.report.Schedule = sched.String()
	h.logf("chaos schedule:\n%s", h.report.Schedule)

	for round, chaos := range sched.Rounds {
		if err := h.runRound(ctx, round, chaos, refResults, refs); err != nil {
			return nil, err
		}
	}
	if err := h.phaseErr(ctx, "churn", h.churn); err != nil {
		return nil, err
	}

	// Final: reconcile the /metrics surface with what the run
	// observed, over a real scrape.
	samples, err := scrapeCounters(h.http, metricsURL)
	if err != nil {
		return nil, fmt.Errorf("soak: scrape: %w", err)
	}
	h.check(checkCounter("ixplight_lg_http_requests_total",
		counterSum(samples, "ixplight_lg_http_requests_total"), h.httpRequests))
	h.check(checkCounter("ixplight_lg_requests_total",
		counterSum(samples, "ixplight_lg_requests_total"), h.calls))
	h.check(checkCounter("ixplight_collector_member_errors_total",
		counterSum(samples, "ixplight_collector_member_errors_total"), h.memberErrors))
	h.check(checkCounter("ixplight_collector_neighbors_total",
		counterSum(samples, "ixplight_collector_neighbors_total"), h.planNeighbors))
	restarts := int(counterSum(samples, "ixplight_lg_listing_restarts_total"))
	h.check(CheckResult{"metrics-reconcile", "ixplight_lg_listing_restarts_total", restarts >= 1,
		fmt.Sprintf("%d listings walked again, want at least the one the churn moved", restarts)})
	for _, outcome := range []string{"ok", "partial", "failed"} {
		h.check(checkCounter(fmt.Sprintf("ixplight_collector_snapshots_total{outcome=%q}", outcome),
			counterSum(samples, fmt.Sprintf("ixplight_collector_snapshots_total{outcome=%q}", outcome)),
			h.snapshotsByOutcome[outcome]))
	}
	// Client-side wire requests can exceed what servers saw (refused
	// connections after a kill are counted by the client only), never
	// the reverse.
	serverTotal := 0
	for _, sim := range h.ixps {
		serverTotal += sim.Total()
	}
	if serverTotal > h.httpRequests {
		h.check(CheckResult{"metrics-reconcile", "server-vs-client", false,
			fmt.Sprintf("servers saw %d requests, clients sent %d", serverTotal, h.httpRequests)})
	} else {
		h.check(CheckResult{"metrics-reconcile", "server-vs-client", true,
			fmt.Sprintf("servers saw %d of %d client requests", serverTotal, h.httpRequests)})
	}

	h.report.Duration = time.Since(start)
	return h.report, nil
}

// runRound plays one chaos round: degraded crawl under scripted
// flakiness, heal, kill mid-crawl, restart and resume.
func (h *harness) runRound(ctx context.Context, round int, chaos []IXPChaos, refResults []collector.Result, refs []*collector.Snapshot) error {
	cfg := h.cfg

	// Phase 1: arm the scripted chaos over the admin endpoints and
	// crawl everything in degraded mode.
	h.logf("round %d phase 1: degraded crawl under chaos", round)
	for i, sim := range h.ixps {
		if err := sim.SetFlaky(ctx, h.http, chaos[i].Flaky); err != nil {
			return err
		}
	}
	var degResults []collector.Result
	h.phase(ctx, fmt.Sprintf("degraded-r%d", round), func(pctx context.Context) {
		degResults = collector.CollectAll(pctx, h.targets(func(i int, c *collector.CollectOptions) {
			c.Partial = true
			c.NeighborRetries = 1
		}), soakDate)
	})
	h.account(degResults)
	for i, r := range degResults {
		name := r.Target.Name
		if r.Err != nil {
			h.check(CheckResult{"degraded-crawl", name, false, r.Err.Error()})
			continue
		}
		h.check(CheckResult{"degraded-crawl", name, true,
			fmt.Sprintf("partial=%v, %d member errors", r.Partial, len(r.Snapshot.MemberErrors))})
		h.check(checkMemberErrors(name, r.Snapshot, chaos[i]))
		for _, c := range checkCodecs(name, r.Snapshot) {
			h.check(c)
		}
		for _, c := range checkDegradedEquivalence(name, h.ixps[i].Profile.Scheme, refs[i], r.Snapshot) {
			h.check(c)
		}
	}

	// Heal everything before the kill phase: its chaos is the kill
	// itself, nothing stochastic.
	for _, sim := range h.ixps {
		if err := sim.SetFlaky(ctx, h.http, lg.FlakyOptions{}); err != nil {
			return err
		}
	}

	// Phase 2: arm the kills and crawl everything with checkpoints.
	h.logf("round %d phase 2: kill %d servers mid-crawl", round, killCount(chaos))
	ckptPath := func(i int) string {
		return filepath.Join(cfg.Dir, fmt.Sprintf("soak-r%d-%s.ckpt", round, h.ixps[i].Name))
	}
	for i, sim := range h.ixps {
		if chaos[i].KillAfter > 0 {
			sim.ArmKill(chaos[i].KillAfter)
		}
	}
	var killResults []collector.Result
	h.phase(ctx, fmt.Sprintf("kill-r%d", round), func(pctx context.Context) {
		killResults = collector.CollectAll(pctx, h.targets(func(i int, c *collector.CollectOptions) {
			c.Partial = true
			c.ErrorBudget = 3
			c.CheckpointPath = ckptPath(i)
		}), soakDate)
	})
	h.account(killResults)
	for i, r := range killResults {
		name := r.Target.Name
		if chaos[i].KillAfter == 0 {
			// Untouched IXPs must come back byte-identical to the
			// reference even while their siblings are being killed.
			if r.Err != nil || r.Partial {
				h.check(CheckResult{"kill-bystander", name, false,
					fmt.Sprintf("undisturbed crawl degraded: err=%v partial=%v", r.Err, r.Partial)})
				continue
			}
			d, err := digest(r.Snapshot)
			if err != nil {
				return err
			}
			h.check(CheckResult{"kill-bystander", name, d == h.report.Digests[name],
				"snapshot digest vs reference"})
			continue
		}
		if !h.ixps[i].Killed() {
			h.check(CheckResult{"kill", name, false,
				fmt.Sprintf("kill after %d requests never fired", chaos[i].KillAfter)})
			continue
		}
		// A killed crawl may survive as partial (budget tripped) or
		// fail outright — both are legal; what matters is what resume
		// makes of the leftovers.
		h.check(CheckResult{"kill", name, true,
			fmt.Sprintf("killed mid-crawl: err=%v partial=%v", r.Err != nil, r.Partial)})
	}

	// Phase 3: restart the killed servers and resume their crawls
	// from the checkpoints.
	h.logf("round %d phase 3: restart and resume", round)
	return h.phaseErr(ctx, fmt.Sprintf("resume-r%d", round), func(pctx context.Context) error {
		return h.resumeKilled(pctx, round, chaos, refResults, ckptPath)
	})
}

// resumeKilled is phase 3's body: restart every killed server and
// resume its crawl from the checkpoint, checking the resume
// invariants per IXP.
func (h *harness) resumeKilled(ctx context.Context, round int, chaos []IXPChaos, refResults []collector.Result, ckptPath func(int) string) error {
	cfg := h.cfg
	for i, sim := range h.ixps {
		if chaos[i].KillAfter == 0 {
			continue
		}
		name := sim.Name
		if err := sim.Restart(); err != nil {
			return err
		}
		// Lenient load: a checkpoint torn by the kill must fall back
		// to a fresh crawl, never abort the soak.
		ck, err := collector.ResumeCheckpoint(ckptPath(i), h.cfg.Logf)
		if err != nil {
			return fmt.Errorf("soak: resume checkpoint %s: %w", name, err)
		}
		doneBefore := 0
		countsBefore := sim.NeighborCounts()
		if ck != nil {
			doneBefore = len(ck.Done)
		}
		resumeResults := collector.CollectAll(ctx, []collector.Target{{
			Name:    name,
			URL:     sim.URL(),
			Options: h.clientOptions(),
			Collect: collector.CollectOptions{
				Partial:             true,
				NeighborParallelism: cfg.NeighborParallelism,
				Metrics:             h.colm,
				Checkpoint:          ck,
				CheckpointPath:      ckptPath(i),
			},
		}}, soakDate)
		h.account(resumeResults)
		rr := resumeResults[0]
		if rr.Err != nil || rr.Partial {
			h.check(CheckResult{"resume", name, false,
				fmt.Sprintf("resumed crawl err=%v partial=%v", rr.Err, rr.Partial)})
			continue
		}
		// Invariant 3a, by server observation: zero routes requests
		// re-issued for checkpointed neighbors.
		countsAfter := sim.NeighborCounts()
		reissued := 0
		if ck != nil {
			for _, asn := range ck.Done[:doneBefore] {
				reissued += countsAfter[asn] - countsBefore[asn]
			}
		}
		h.check(CheckResult{"resume-no-reissue", name, reissued == 0,
			fmt.Sprintf("%d requests re-issued for %d checkpointed neighbors", reissued, doneBefore)})
		// Invariant 3b, by client telemetry: the resumed crawl spends
		// exactly status + neighbors + one listing per remaining
		// neighbor.
		wantCalls := 2 + refResults[i].Stats.Neighbors - doneBefore
		h.check(CheckResult{"resume-call-budget", name, rr.Calls == wantCalls,
			fmt.Sprintf("%d logical calls, want %d (plan %d, %d done)",
				rr.Calls, wantCalls, refResults[i].Stats.Neighbors, doneBefore)})
		// The acceptance bar: the resumed snapshot is byte-for-byte
		// the reference.
		d, err := digest(rr.Snapshot)
		if err != nil {
			return err
		}
		h.check(CheckResult{"resume-digest", name, d == h.report.Digests[name],
			"final snapshot bytes vs reference"})
		if _, err := os.Stat(ckptPath(i)); !os.IsNotExist(err) {
			h.check(CheckResult{"resume-cleanup", name, false, "completed crawl left its checkpoint behind"})
		} else {
			h.check(CheckResult{"resume-cleanup", name, true, "checkpoint removed"})
		}
		for _, c := range checkCodecs(name, rr.Snapshot) {
			h.check(c)
		}
	}
	return nil
}

func killCount(chaos []IXPChaos) int {
	n := 0
	for _, c := range chaos {
		if c.KillAfter > 0 {
			n++
		}
	}
	return n
}

// churn is the last phase: the first IXP's route server lives through
// one evolved day. Its day 0 — what the server has held all along — is
// crawled and written as a chain's head; then the server moves to day 1
// in the middle of the next crawl (SimIXP.ArmAdvance), while a listing
// of a changed neighbor is half walked. Every neighbor's listing in that
// crawl must be its Adj-RIB-In at one version, day 0's or day 1's, and
// the two crawls, written as collect writes them (collector.Append),
// must load as one two-day chain.
func (h *harness) churn(ctx context.Context) error {
	sim := h.ixps[0]
	var days []*collector.Snapshot
	err := ixpgen.EvolveSeries(sim.Profile, ixpgen.TemporalOptions{Seed: h.cfg.Seed, Scale: h.cfg.Scale, Days: 2}, 0,
		func(_ int, s *collector.Snapshot) error {
			days = append(days, s)
			return nil
		})
	if err != nil {
		return fmt.Errorf("soak: churn: %w", err)
	}
	dir := filepath.Join(h.cfg.Dir, "churn")
	var crawled *collector.Snapshot
	for d, day := range days {
		if d == 1 {
			sim.ArmAdvance(days[0], days[1])
		}
		target := h.targets(nil)[0]
		// Small pages, so the listing the change lands in is mid-walk.
		target.Options.PageSize = 16
		results := collector.CollectAll(ctx, []collector.Target{target}, day.Date)
		h.account(results)
		r := results[0]
		if r.Err != nil || r.Partial {
			h.check(CheckResult{"churn-crawl", sim.Name, false, fmt.Sprintf("day %d: err=%v partial=%v", d, r.Err, r.Partial)})
			return nil
		}
		crawled = r.Snapshot
		if d == 0 {
			h.check(checkListings(sim.Name, crawled, day, day))
		}
		path, err := collector.Append(dir, crawled, h.logf)
		if err != nil {
			h.check(CheckResult{"churn-append", sim.Name, false, err.Error()})
			return nil
		}
		h.check(CheckResult{"churn-append", sim.Name, true, filepath.Base(path)})
	}
	fired, err := sim.Advanced()
	h.check(CheckResult{"churn-advance", sim.Name, fired && err == nil, fmt.Sprintf("fired=%v err=%v", fired, err)})
	h.check(checkListings(sim.Name, crawled, days[0], days[1]))

	lab := report.NewLabShell([]ixpgen.Profile{sim.Profile}, h.cfg.Seed, h.cfg.Scale, 1)
	err = lab.LoadSnapshotDir(dir)
	series := lab.Series[sim.Name]
	ok := err == nil && len(series) == 2 && series[1] == analysis.CountDay(crawled)
	h.check(CheckResult{"churn-chain-loads", sim.Name, ok, fmt.Sprintf("%d days, err=%v", len(series), err)})
	return nil
}
