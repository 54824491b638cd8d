package report

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
	"ixplight/internal/sanitize"
	"ixplight/internal/telemetry"
)

// Experiment names accepted by Run: one per paper artifact, plus the
// three extension experiments (ext/large flavours, §5.6 hygiene
// what-if, collector-visibility gap).
var ExperimentNames = []string{
	"table1", "fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c",
	"table2", "sec53", "fig5", "fig6", "fig7", "table3", "table4",
	"sanitation", "extlarge", "sec56", "visibility", "intersect",
	"categories", "summary",
}

// Lab bundles the generated snapshots an experiment runs over.
type Lab struct {
	// Profiles are the IXPs under study (Table 1 order).
	Profiles []ixpgen.Profile
	// Snapshots holds the latest snapshot per IXP.
	Snapshots map[string]*collector.Snapshot
	// Indexes holds the classified index of each profiled IXP's latest
	// snapshot, built by whoever built the snapshot: NewLabParallel in
	// its generation task, Load off the file's columns or delta (the
	// index attached to the header-only day) or from the routes of a
	// materialized day. Every classifying experiment reads it; none
	// builds one.
	Indexes map[string]*analysis.Index
	// Series optionally holds a full date-ordered snapshot series per
	// IXP (e.g. loaded from a cmd/ixpgen dataset). When present, the
	// temporal experiments (table3, table4, sanitation) run over it
	// instead of regenerating a synthetic series.
	Series map[string][]*collector.Snapshot
	// Registry labels ASNs in rankings.
	Registry *asdb.Registry
	// Seed and Scale record how the lab was generated.
	Seed  int64
	Scale float64
	// Parallel bounds the lab's worker pools (file decode and per-IXP
	// chain fold in Load, experiment fan-out in RunMany,
	// visibility's per-profile simulations, series generation). 0 or
	// less means runtime.GOMAXPROCS(0); 1 runs everything sequentially.
	// Results are identical for any value — parallel work lands in
	// ordered slots.
	Parallel int
	// Materialize forces Load to decode full []bgp.Route snapshots even
	// for binary files, and to reconstruct delta chains through a
	// materializing DeltaApplier. By default those files are indexed off
	// their columns (analysis.IndexFromReader) and delta days advance
	// the previous day's index, both carried as header-only snapshots
	// with the index attached — byte-identical experiment output,
	// without materializing routes. No command sets it: it is the
	// reference configuration the equivalence tests and the benchmark's
	// output check hold the default path to.
	Materialize bool
	// Telemetry, when set, records a per-experiment run-time histogram
	// (ixplight_report_experiment_seconds) and emits a
	// "report.experiment" span per Run.
	Telemetry *telemetry.Registry
	// TraceCtx, when set alongside Telemetry, parents every
	// report.experiment span under the context's active trace span —
	// cmd/analyze uses it to hang all experiments off one root
	// "analyze.run" span so a whole -exp all run is a single trace.
	// Nil means each experiment roots its own trace.
	TraceCtx context.Context

	// loaded is what the last Load left for a successor lab's Load to
	// start from (see dataset).
	loaded *dataset
}

// workers resolves the lab's worker budget.
func (l *Lab) workers() int {
	if l.Parallel < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return l.Parallel
}

// NewLab generates the latest-snapshot lab for the given profiles.
func NewLab(profiles []ixpgen.Profile, seed int64, scale float64) (*Lab, error) {
	return NewLabParallel(profiles, seed, scale, 0)
}

// NewLabShell builds a Lab without generating any workload — the
// constructor for callers that immediately fill it via LoadSnapshotDir
// or Load. The serving daemon builds every generation's lab this way,
// so a (re)load never pays synthetic generation.
func NewLabShell(profiles []ixpgen.Profile, seed int64, scale float64, workers int) *Lab {
	return &Lab{
		Profiles:  profiles,
		Snapshots: make(map[string]*collector.Snapshot, len(profiles)),
		Indexes:   make(map[string]*analysis.Index, len(profiles)),
		Registry:  asdb.Default(),
		Seed:      seed,
		Scale:     scale,
		Parallel:  workers,
	}
}

// NewLabParallel is NewLab with an explicit worker budget: the
// per-IXP workload generation, and the index build over what it
// generated, fan out across the pool. Generation is seeded per
// profile, so the lab is identical for any worker count.
func NewLabParallel(profiles []ixpgen.Profile, seed int64, scale float64, workers int) (*Lab, error) {
	lab := NewLabShell(profiles, seed, scale, workers)
	ixs := make([]*analysis.Index, len(profiles))
	if _, err := runPool(len(profiles), lab.workers(), func(i int) error {
		w, err := ixpgen.Generate(profiles[i], ixpgen.Options{Seed: seed, Scale: scale})
		if err != nil {
			return err
		}
		ixs[i] = analysis.NewIndex(w.Snapshot("2021-10-04"), profiles[i].Scheme)
		return nil
	}); err != nil {
		return nil, err
	}
	for i, p := range profiles {
		lab.Snapshots[p.IXP] = ixs[i].Snapshot()
		lab.Indexes[p.IXP] = ixs[i]
	}
	return lab, nil
}

// Run executes one experiment by name, writing its paper-shaped output.
func (l *Lab) Run(w io.Writer, name string) (err error) {
	if l.Telemetry != nil {
		ctx := l.TraceCtx
		if ctx == nil {
			ctx = context.Background()
		}
		_, sp := telemetry.StartSpan(ctx, l.Telemetry, "report.experiment")
		sp.SetAttr("experiment", name)
		h := l.Telemetry.HistogramVec("ixplight_report_experiment_seconds",
			"Experiment run time by name.", nil, "experiment").With(name)
		t0 := time.Now()
		defer func() {
			h.ObserveSince(t0)
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}()
	}
	return l.run(w, name)
}

// run is the uninstrumented experiment dispatch.
func (l *Lab) run(w io.Writer, name string) error {
	switch name {
	case "table1":
		return l.runTable1(w)
	case "fig1":
		return l.runMix(w, "Figure 1 — IXP-defined vs unknown communities", WriteFig1)
	case "fig2":
		return l.runMix(w, "Figure 2 — standard vs extended vs large", WriteFig2)
	case "fig3":
		return l.runFig3(w)
	case "fig4a":
		return l.runFig4a(w)
	case "fig4b":
		return l.runFig4b(w)
	case "fig4c":
		return l.runFig4c(w)
	case "table2":
		return l.runTable2(w)
	case "sec53":
		return l.runSec53(w)
	case "fig5":
		return l.runFig5(w)
	case "fig6":
		return l.runFig6(w)
	case "fig7":
		return l.runFig7(w)
	case "table3":
		return l.runStability(w, "Table 3 — daily variation over one week", 7, nil)
	case "table4":
		return l.runStability(w, "Table 4 — weekly variation over twelve weeks", 84, nil)
	case "sanitation":
		return l.runSanitation(w)
	case "extlarge":
		return l.runExtLarge(w)
	case "sec56":
		return l.runHygiene(w)
	case "visibility":
		return l.runVisibility(w)
	case "intersect":
		return l.runIntersect(w)
	case "categories":
		return l.runCategories(w)
	case "summary":
		return l.runSummary(w)
	default:
		return fmt.Errorf("report: unknown experiment %q (known: %v)", name, ExperimentNames)
	}
}

func (l *Lab) runTable1(w io.Writer) error {
	Section(w, "Table 1 — the IXPs in numbers")
	var rows []Table1Row
	for _, p := range l.Profiles {
		rows = append(rows, Table1RowFromSnapshot(
			l.Snapshots[p.IXP], p.Location, p.AvgTraffic,
			int(float64(p.TotalMembers)*l.Scale)))
	}
	WriteTable1(w, rows)
	return nil
}

func (l *Lab) runMix(w io.Writer, title string, emit func(io.Writer, string, analysis.Mix, analysis.Mix)) error {
	Section(w, title)
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		emit(w, p.IXP, ix.Mix(false), ix.Mix(true))
	}
	return nil
}

func (l *Lab) runFig3(w io.Writer) error {
	Section(w, "Figure 3 — action vs informational communities")
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		a4, i4 := ix.ActionInfoSplit(false)
		a6, i6 := ix.ActionInfoSplit(true)
		WriteFig3(w, p.IXP, "IPv4", a4, i4)
		WriteFig3(w, p.IXP, "IPv6", a6, i6)
	}
	return nil
}

func (l *Lab) runFig4a(w io.Writer) error {
	Section(w, "Figure 4a — ASes and routes using action communities")
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		WriteFig4a(w, p.IXP, "IPv4", ix.Usage(false))
		WriteFig4a(w, p.IXP, "IPv6", ix.Usage(true))
	}
	return nil
}

func (l *Lab) runFig4b(w io.Writer) error {
	Section(w, "Figure 4b — action community usage concentration")
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		WriteFig4b(w, p.IXP, analysis.ConcentrationCDF(ix.PerASActionCounts(false), ix.Usage(false).MembersAtRS))
	}
	return nil
}

func (l *Lab) runFig4c(w io.Writer) error {
	Section(w, "Figure 4c — route share vs community share per AS")
	for _, p := range l.Profiles {
		WriteFig4c(w, p.IXP, l.Indexes[p.IXP].RouteCommCorrelation(false))
	}
	return nil
}

func (l *Lab) runTable2(w io.Writer) error {
	Section(w, "Table 2 — ASes using each action community type")
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		WriteTable2(w, p.IXP, "IPv4", ix.ASesPerActionType(false))
		WriteTable2(w, p.IXP, "IPv6", ix.ASesPerActionType(true))
	}
	return nil
}

func (l *Lab) runSec53(w io.Writer) error {
	Section(w, "§5.3 — action community occurrences per type")
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		WriteSec53(w, p.IXP, "IPv4", ix.OccurrencesPerType(false))
		WriteSec53(w, p.IXP, "IPv6", ix.OccurrencesPerType(true))
	}
	return nil
}

func (l *Lab) runFig5(w io.Writer) error {
	Section(w, "Figure 5 — top-20 action communities (IPv4)")
	for _, p := range l.Profiles {
		WriteTopCommunities(w, "Figure 5", p.IXP, l.Indexes[p.IXP].TopActionCommunities(false, 20), l.Registry)
	}
	return nil
}

func (l *Lab) runFig6(w io.Writer) error {
	Section(w, "Figure 6 — top-20 communities targeting non-RS members (IPv4)")
	for _, p := range l.Profiles {
		nm := l.Indexes[p.IXP].NonMemberTargeting(false, 20)
		fmt.Fprintf(w, "%s: %.1f%% of action instances (%d of %d) target non-RS members\n",
			p.IXP, 100*nm.Share(), nm.Instances, nm.Total)
		WriteTopCommunities(w, "Figure 6", p.IXP, nm.Top, l.Registry)
	}
	return nil
}

func (l *Lab) runFig7(w io.Writer) error {
	Section(w, "Figure 7 — top-10 ASes targeting non-RS members (IPv4)")
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		WriteCulprits(w, p.IXP, ix.CulpritRanking(false, 10), ix.NonMemberShare(false).Instances, l.Registry)
	}
	return nil
}

// runStability reports Tables 3/4 over a daily series — the loaded
// dataset when the lab has one, a freshly generated series otherwise.
func (l *Lab) runStability(w io.Writer, title string, days int, valleys []int) error {
	Section(w, title)
	for _, p := range l.Profiles {
		snaps, err := l.series(p, days, valleys)
		if err != nil {
			return err
		}
		// The paper computes Appendix A over the sanitized dataset:
		// collection valleys are removed before measuring variation.
		snaps, _ = sanitize.Clean(snaps, sanitize.Options{})
		if len(snaps) > days {
			snaps = snaps[:days]
		}
		if days > 7 {
			snaps = analysis.WeeklyRepresentatives(snaps)
		}
		WriteStability(w, p.IXP+"-v4", analysis.Stability(snaps, false))
		WriteStability(w, p.IXP+"-v6", analysis.Stability(snaps, true))
	}
	return nil
}

// series returns the lab's stored series for p, or generates one.
func (l *Lab) series(p ixpgen.Profile, days int, valleys []int) ([]*collector.Snapshot, error) {
	if stored := l.Series[p.IXP]; len(stored) > 0 {
		return stored, nil
	}
	// Day generation is independently seeded per day, so the series
	// fans out across the lab's pool with each day landing in its own
	// slot — the same date-ordered series for any worker count.
	opts := ixpgen.TemporalOptions{Seed: l.Seed, Scale: l.Scale, Days: days, ValleyDays: valleys}
	snaps := make([]*collector.Snapshot, days)
	if _, err := runPool(days, l.workers(), func(d int) error {
		wl, date, err := ixpgen.GenerateDay(p, opts, d)
		if err != nil {
			return err
		}
		snaps[d] = wl.Snapshot(date)
		return nil
	}); err != nil {
		return nil, err
	}
	return snaps, nil
}

// runExtLarge reports the extension analysis: action instances by
// community flavour, including wide (32-bit) targets only large
// communities can express.
func (l *Lab) runExtLarge(w io.Writer) error {
	Section(w, "Extension — action communities beyond the standard flavour")
	for _, p := range l.Profiles {
		f := l.Indexes[p.IXP].FlavourActions(false)
		fmt.Fprintf(w, "%s: standard %d action / %d info; extended %d / %d; large %d / %d; wide-target large actions %d\n",
			p.IXP, f.StandardAction, f.StandardInfo,
			f.ExtendedAction, f.ExtendedInfo,
			f.LargeAction, f.LargeInfo, f.LargeWideTargets)
	}
	return nil
}

// runHygiene reports the §5.6 what-if: the impact of a "too many
// communities" import filter at several thresholds.
func (l *Lab) runHygiene(w io.Writer) error {
	Section(w, "§5.6 — impact of a 'too many communities' filter")
	thresholds := []int{10, 20, 40, 80}
	for _, p := range l.Profiles {
		ix := l.Indexes[p.IXP]
		pct := ix.CommunityCountPercentiles(false, []float64{50, 90, 99, 100})
		fmt.Fprintf(w, "%s: communities per route p50=%d p90=%d p99=%d max=%d\n",
			p.IXP, pct[0], pct[1], pct[2], pct[3])
		for _, h := range ix.HygieneFilterImpact(false, thresholds) {
			fmt.Fprintf(w, "  threshold %3d: drops %5.1f%% of routes, sheds %5.1f%% of community load\n",
				h.Threshold, 100*h.DropShare(), 100*h.LoadShare())
		}
	}
	return nil
}

// runVisibility reports the methodological experiment behind the
// paper's vantage-point choice: the share of action communities that
// a classic route collector never sees because the RS scrubs them.
// Each profile simulates its own route server, so the profiles run on
// the lab's worker pool into ordered slots.
func (l *Lab) runVisibility(w io.Writer) error {
	Section(w, "Methodology — action community visibility: looking glass vs route collector")
	reports := make([]analysis.VisibilityReport, len(l.Profiles))
	if _, err := runPool(len(l.Profiles), l.workers(), func(i int) (err error) {
		reports[i], err = l.visibilityOf(l.Profiles[i])
		return err
	}); err != nil {
		return err
	}
	for i, p := range l.Profiles {
		v := reports[i]
		fmt.Fprintf(w, "%s: LG sees %d action instances; collector sees %d over %d routes → %.1f%% invisible\n",
			p.IXP, v.LGActionInstances, v.CollectorActionInstances, v.CollectorRoutes,
			100*v.VisibilityGap())
	}
	return nil
}

// visibilityOf populates one profile's scrubbing route server and
// compares what its looking glass shows with what a collector peering
// like a member receives.
func (l *Lab) visibilityOf(p ixpgen.Profile) (analysis.VisibilityReport, error) {
	var none analysis.VisibilityReport
	server, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
	if err != nil {
		return none, err
	}
	wl, err := ixpgen.Generate(p, ixpgen.Options{Seed: l.Seed, Scale: min(l.Scale, 0.01)})
	if err != nil {
		return none, err
	}
	if err := wl.Populate(server); err != nil {
		return none, err
	}
	// The collector peers like a member and receives the post-action
	// export; the LG view is the union of all Adj-RIB-Ins, counted peer
	// by peer.
	const collectorASN = 65010
	if err := server.AddPeer(rs.Peer{ASN: collectorASN, Name: "route-collector",
		AddrV4: netutil.PeerAddrV4(9999), AddrV6: netutil.PeerAddrV6(9999),
		IPv4: true, IPv6: true}); err != nil {
		return none, err
	}
	// Both views are walked in place and counted route by route with
	// the analysis classifier (the counter CompareVisibility uses on
	// materialised lists); nothing is copied to be counted.
	var v analysis.VisibilityReport
	v.CollectorRoutes = server.VisitExported(collectorASN, func(r *bgp.Route) {
		v.CollectorActionInstances += analysis.RouteActionInstances(r, p.Scheme)
	})
	for _, peer := range server.Peers() {
		server.VisitAccepted(peer.ASN, 0, -1, func(r *bgp.Route) {
			v.LGActionInstances += analysis.RouteActionInstances(r, p.Scheme)
		})
	}
	return v, nil
}

// runIntersect reports the §5.4 cross-IXP target overlaps.
func (l *Lab) runIntersect(w io.Writer) error {
	Section(w, "§5.4 — intersection of top-20 targets across IXPs")
	ixps := make([]*analysis.Index, len(l.Profiles))
	for i, p := range l.Profiles {
		ixps[i] = l.Indexes[p.IXP]
	}
	pairs, common := analysis.TargetIntersections(ixps, false, 20)
	for _, pair := range pairs {
		fmt.Fprintf(w, "%s ∩ %s: %d shared targets (%s)\n",
			pair.IXPA, pair.IXPB, len(pair.Shared), nameList(pair.Shared, l.Registry, 6))
	}
	fmt.Fprintf(w, "shared by all %d IXPs: %d targets (%s)\n",
		len(ixps), len(common), nameList(common, l.Registry, 10))
	return nil
}

// runSummary prints the paper's abstract-level findings as measured
// over this lab — the cross-IXP ranges of the three headline numbers.
func (l *Lab) runSummary(w io.Writer) error {
	Section(w, "Headline findings (cf. the paper's abstract)")
	var asShare, actionShare, nmShare shareRange
	names := ""
	for i, p := range l.Profiles {
		if i > 0 {
			names += ", "
		}
		names += p.IXP
		ix := l.Indexes[p.IXP]
		asShare.update(ix.Usage(false).ASShare())
		actionShare.update(ix.ActionShare(false))
		nmShare.update(ix.NonMemberShare(false).Share())
	}
	fmt.Fprintf(w, "over %s (IPv4):\n", names)
	fmt.Fprintf(w, "members using action communities in ≥1 route: %v (paper: >35.7%%, up to 54.1%%)\n", asShare)
	fmt.Fprintf(w, "action share of IXP-defined standard communities: %v (paper: ≥66.6%%)\n", actionShare)
	fmt.Fprintf(w, "action communities targeting non-RS members: %v (paper: ≥31.8%%)\n", nmShare)
	return nil
}

// shareRange is the cross-IXP range of one headline share. The first
// value seeds both ends whatever it is: a 0 % share is a value, not
// "unset".
type shareRange struct {
	min, max float64
	seen     bool
}

func (r *shareRange) update(v float64) {
	if !r.seen {
		r.min, r.max, r.seen = v, v, true
	}
	r.min, r.max = min(r.min, v), max(r.max, v)
}

func (r shareRange) String() string {
	return fmt.Sprintf("%.1f%%–%.1f%%", 100*r.min, 100*r.max)
}

// runCategories reports the §5.4 target-category breakdown.
func (l *Lab) runCategories(w io.Writer) error {
	Section(w, "§5.4 — targeted ASes by operator category (IPv4)")
	for _, p := range l.Profiles {
		b := l.Indexes[p.IXP].CategoryBreakdown(l.Registry, false)
		fmt.Fprintf(w, "%s (content+cloud share: all %.1f%%, non-members %.1f%%)\n",
			p.IXP, 100*analysis.ContentShare(b.All), 100*analysis.ContentShare(b.NonMembers))
		for _, row := range b.NonMembers {
			if row.Category == asdb.Unknown {
				fmt.Fprintf(w, "  non-member %-18s %8d (%.1f%%)  [synthetic tail]\n",
					row.Category, row.Instances, 100*row.Share)
				continue
			}
			fmt.Fprintf(w, "  non-member %-18s %8d (%.1f%%)\n", row.Category, row.Instances, 100*row.Share)
		}
	}
	return nil
}

// nameList renders up to max AS names.
func nameList(asns []uint32, reg *asdb.Registry, max int) string {
	if len(asns) == 0 {
		return "none"
	}
	var out []byte
	for i, asn := range asns {
		if i == max {
			out = append(out, ", …"...)
			break
		}
		if i > 0 {
			out = append(out, ", "...)
		}
		out = appendASName(out, reg, asn)
	}
	return string(out)
}

func (l *Lab) runSanitation(w io.Writer) error {
	Section(w, "§3 — sanitation: valley detection")
	for _, p := range l.Profiles {
		// Two injected collection failures when generating; a loaded
		// dataset carries whatever valleys its producer injected.
		snaps, err := l.series(p, 21, []int{5, 13})
		if err != nil {
			return err
		}
		kept, removed := sanitize.Clean(snaps, sanitize.Options{})
		fmt.Fprintf(w, "%s: %d snapshots, %d removed as valleys (%.1f%%), %d kept\n",
			p.IXP, len(snaps), removed, 100*float64(removed)/float64(len(snaps)), len(kept))
	}
	return nil
}
