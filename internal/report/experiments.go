package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"iter"
	"os"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/ixpgen"
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

// Lab bundles the loaded dataset an experiment runs over.
type Lab struct {
	// Profiles are the IXPs under study (Table 1 order).
	Profiles []ixpgen.Profile
	// Indexes holds the classified index of each studied IXP's latest
	// snapshot (Index.Snapshot), built by Load off the file's columns or
	// delta, or from the routes of a materialized day, for each profile
	// the dataset has days of. Every experiment reads it, and reports
	// on the profiles it holds; none builds one.
	Indexes map[string]*analysis.Index
	// Series holds the counts of each studied IXP's full date-ordered
	// daily series, as Load found it in the dataset; the temporal
	// experiments (table3, table4, sanitation) run over it.
	Series map[string][]analysis.DayCounts
	// Registry labels ASNs in rankings.
	Registry *asdb.Registry
	// Seed and Scale record the world the lab studies: Table 1 scales
	// its member totals, and visibility simulates its route servers.
	Seed  int64
	Scale float64
	// Digest, set by Load, names what the lab serves by content: the
	// sha256 of its profiles' IXPs in order, its seed and its scale, and,
	// per IXP it holds days of, each day's date and the sha256 of the
	// file it came from, in date order. Where the files are and when they
	// were written does not enter it: copies of one dataset share it.
	Digest [sha256.Size]byte
	// Parallel bounds the lab's worker pools (file decode and per-IXP
	// chain fold in Load, experiment fan-out in RunMany,
	// visibility's per-profile simulations, GenerateLab's writes). 0 or
	// less means runtime.GOMAXPROCS(0); 1 runs everything sequentially.
	// Results are identical for any value — parallel work lands in
	// ordered slots.
	Parallel int
	// Materialize forces Load to decode full []bgp.Route snapshots even
	// for binary files, and to reconstruct delta chains through a
	// materializing DeltaApplier. By default those files are indexed off
	// their columns (analysis.IndexFromReader) and delta days advance
	// the previous day's index, over header-only snapshots —
	// byte-identical experiment output, without materializing routes.
	// Its days are counted with analysis.CountDay, independently of the
	// fold. No command sets it: it is the reference configuration the
	// equivalence tests and the benchmark's output check hold the
	// default path to.
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

// Studied yields, in Table 1 order, each profile the lab holds a day
// of — the profiles its dataset has days of — with that day's index.
// Every experiment walks the lab through it, and so does every ixpd
// answer that covers all IXPs, so a profile the lab holds no day of is
// left out of every report.
func (l *Lab) Studied() iter.Seq2[ixpgen.Profile, *analysis.Index] {
	return func(yield func(ixpgen.Profile, *analysis.Index) bool) {
		for _, p := range l.Profiles {
			if ix := l.Indexes[p.IXP]; ix != nil && !yield(p, ix) {
				return
			}
		}
	}
}

// fanOut is Studied on the lab's worker pool: fn runs once per studied
// profile, writing to a buffer of its own, and the buffers land on w in
// Table 1 order.
func (l *Lab) fanOut(w io.Writer, fn func(w io.Writer, p ixpgen.Profile) error) error {
	studied := make([]ixpgen.Profile, 0, len(l.Indexes))
	for p := range l.Studied() {
		studied = append(studied, p)
	}
	outs := make([]bytes.Buffer, len(studied))
	if _, err := runPool(len(studied), l.Parallel, func(i int) error { return fn(&outs[i], studied[i]) }); err != nil {
		return err
	}
	for i := range outs {
		outs[i].WriteTo(w)
	}
	return nil
}

// NewLabShell builds a Lab without generating any workload — the
// constructor for callers that immediately fill it via LoadSnapshotDir
// or Load. The serving daemon builds every generation's lab this way,
// and GenerateLab loads the dataset it writes into one.
func NewLabShell(profiles []ixpgen.Profile, seed int64, scale float64, workers int) *Lab {
	return &Lab{
		Profiles: profiles,
		Indexes:  make(map[string]*analysis.Index, len(profiles)),
		Registry: asdb.Default(),
		Seed:     seed,
		Scale:    scale,
		Parallel: workers,
	}
}

// generatedValleys are the collection valleys of a generated world's
// series: days 9 and 41 of its twelve weeks, neither in Table 3's week
// nor on a Table 4 weekly representative, so sanitation has two days
// to detect and Tables 3/4 read healthy days either way.
var generatedValleys = [...]int{9, 41}

// WriteGenerated writes a generated world into dir: per profile the
// twelve-week series `ixpgen -codec delta -days 84 -valleys 9,41`
// writes at the same seed and scale, through the same writer
// (ixpgen.WriteSeries), one profile per task on at most workers
// workers (0 or less: GOMAXPROCS). The files are the same for any
// worker count.
func WriteGenerated(dir string, profiles []ixpgen.Profile, seed int64, scale float64, workers int) error {
	opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 84, ValleyDays: generatedValleys[:]}
	_, err := runPool(len(profiles), workers, func(i int) error {
		_, err := ixpgen.WriteSeries(dir, profiles[i], opts, true)
		return err
	})
	return err
}

// GenerateLab builds the lab of a generated world: it writes the world
// (WriteGenerated) into a fresh temporary directory, loads it as
// LoadSnapshotDir does, and removes the directory, whether or not the
// writes and the load succeeded. A loaded lab keeps no file open, so it
// serves every experiment once the directory is gone.
func GenerateLab(profiles []ixpgen.Profile, seed int64, scale float64, workers int) (lab *Lab, err error) {
	dir, err := os.MkdirTemp("", "ixplight-lab-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			lab, err = nil, rmErr
		}
	}()
	if err := WriteGenerated(dir, profiles, seed, scale, workers); err != nil {
		return nil, err
	}
	lab = NewLabShell(profiles, seed, scale, workers)
	if err := lab.LoadSnapshotDir(dir); err != nil {
		return nil, err
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
		return l.perIXP(w, "Figure 1 — IXP-defined vs unknown communities", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteFig1(w, p.IXP, ix.Mix(false), ix.Mix(true))
		})
	case "fig2":
		return l.perIXP(w, "Figure 2 — standard vs extended vs large", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteFig2(w, p.IXP, ix.Mix(false), ix.Mix(true))
		})
	case "fig3":
		return l.perIXP(w, "Figure 3 — action vs informational communities", func(p ixpgen.Profile, ix *analysis.Index) {
			a4, i4 := ix.ActionInfoSplit(false)
			a6, i6 := ix.ActionInfoSplit(true)
			WriteFig3(w, p.IXP, "IPv4", a4, i4)
			WriteFig3(w, p.IXP, "IPv6", a6, i6)
		})
	case "fig4a":
		return l.perIXP(w, "Figure 4a — ASes and routes using action communities", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteFig4a(w, p.IXP, "IPv4", ix.Usage(false))
			WriteFig4a(w, p.IXP, "IPv6", ix.Usage(true))
		})
	case "fig4b":
		return l.perIXP(w, "Figure 4b — action community usage concentration", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteFig4b(w, p.IXP, analysis.ConcentrationCDF(ix.PerASActionCounts(false), ix.Usage(false).MembersAtRS))
		})
	case "fig4c":
		return l.perIXP(w, "Figure 4c — route share vs community share per AS", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteFig4c(w, p.IXP, ix.RouteCommCorrelation(false))
		})
	case "table2":
		return l.perIXP(w, "Table 2 — ASes using each action community type", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteTable2(w, p.IXP, "IPv4", ix.ASesPerActionType(false))
			WriteTable2(w, p.IXP, "IPv6", ix.ASesPerActionType(true))
		})
	case "sec53":
		return l.perIXP(w, "§5.3 — action community occurrences per type", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteSec53(w, p.IXP, "IPv4", ix.OccurrencesPerType(false))
			WriteSec53(w, p.IXP, "IPv6", ix.OccurrencesPerType(true))
		})
	case "fig5":
		return l.perIXP(w, "Figure 5 — top-20 action communities (IPv4)", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteTopCommunities(w, "Figure 5", p.IXP, ix.TopActionCommunities(false, 20), l.Registry)
		})
	case "fig6":
		return l.perIXP(w, "Figure 6 — top-20 communities targeting non-RS members (IPv4)", func(p ixpgen.Profile, ix *analysis.Index) {
			nm := ix.NonMemberTargeting(false, 20)
			fmt.Fprintf(w, "%s: %.1f%% of action instances (%d of %d) target non-RS members\n",
				p.IXP, 100*nm.Share(), nm.Instances, nm.Total)
			WriteTopCommunities(w, "Figure 6", p.IXP, nm.Top, l.Registry)
		})
	case "fig7":
		return l.perIXP(w, "Figure 7 — top-10 ASes targeting non-RS members (IPv4)", func(p ixpgen.Profile, ix *analysis.Index) {
			WriteCulprits(w, p.IXP, ix.CulpritRanking(false, 10), ix.NonMemberShare(false).Instances, l.Registry)
		})
	case "table3":
		return l.runStability(w, "Table 3 — daily variation over one week", 7)
	case "table4":
		return l.runStability(w, "Table 4 — weekly variation over twelve weeks", 84)
	case "sanitation":
		return l.perIXP(w, "§3 — sanitation: valley detection", func(p ixpgen.Profile, _ *analysis.Index) {
			series := l.Series[p.IXP]
			removed := len(sanitize.DetectValleys(series))
			fmt.Fprintf(w, "%s: %d snapshots, %d removed as valleys (%.1f%%), %d kept\n",
				p.IXP, len(series), removed, 100*float64(removed)/float64(len(series)), len(series)-removed)
		})
	case "extlarge":
		// Action instances by community flavour, including wide (32-bit)
		// targets only large communities can express.
		return l.perIXP(w, "Extension — action communities beyond the standard flavour", func(p ixpgen.Profile, ix *analysis.Index) {
			f := ix.FlavourActions(false)
			fmt.Fprintf(w, "%s: standard %d action / %d info; extended %d / %d; large %d / %d; wide-target large actions %d\n",
				p.IXP, f.StandardAction, f.StandardInfo,
				f.ExtendedAction, f.ExtendedInfo,
				f.LargeAction, f.LargeInfo, f.LargeWideTargets)
		})
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

// perIXP writes the section title, then what fn writes for each studied
// IXP, in Table 1 order.
func (l *Lab) perIXP(w io.Writer, title string, fn func(p ixpgen.Profile, ix *analysis.Index)) error {
	Section(w, title)
	for p, ix := range l.Studied() {
		fn(p, ix)
	}
	return nil
}

func (l *Lab) runTable1(w io.Writer) error {
	Section(w, "Table 1 — the IXPs in numbers")
	var rows []Table1Row
	for p, ix := range l.Studied() {
		rows = append(rows, Table1RowFromCounts(p.IXP, ix.DayCounts(),
			p.Location, p.AvgTraffic, int(float64(p.TotalMembers)*l.Scale)))
	}
	WriteTable1(w, rows)
	return nil
}

// runStability reports Tables 3/4 over each studied IXP's loaded daily
// series (l.Series).
func (l *Lab) runStability(w io.Writer, title string, days int) error {
	return l.perIXP(w, title, func(p ixpgen.Profile, _ *analysis.Index) {
		// The paper computes Appendix A over the sanitized dataset:
		// collection valleys, detected over the whole series, are
		// removed from the window of its first `days` calendar days
		// before measuring variation.
		series := l.Series[p.IXP]
		series = sanitize.Without(analysis.Window(series, days), sanitize.DetectValleys(series))
		if days > 7 {
			series = analysis.WeeklyRepresentatives(series)
		}
		WriteStability(w, p.IXP+"-v4", analysis.Stability(series, false))
		WriteStability(w, p.IXP+"-v6", analysis.Stability(series, true))
	})
}

// runHygiene reports the §5.6 what-if: the impact of a "too many
// communities" import filter at several thresholds.
func (l *Lab) runHygiene(w io.Writer) error {
	thresholds := []int{10, 20, 40, 80}
	return l.perIXP(w, "§5.6 — impact of a 'too many communities' filter", func(p ixpgen.Profile, ix *analysis.Index) {
		pct := ix.CommunityCountPercentiles(false, []float64{50, 90, 99, 100})
		fmt.Fprintf(w, "%s: communities per route p50=%d p90=%d p99=%d max=%d\n",
			p.IXP, pct[0], pct[1], pct[2], pct[3])
		for _, h := range ix.HygieneFilterImpact(false, thresholds) {
			fmt.Fprintf(w, "  threshold %3d: drops %5.1f%% of routes, sheds %5.1f%% of community load\n",
				h.Threshold, 100*h.DropShare(), 100*h.LoadShare())
		}
	})
}

// runVisibility reports the methodological experiment behind the
// paper's vantage-point choice: the share of action communities that
// a classic route collector never sees because the RS scrubs them.
// Each profile simulates its own route server, so the profiles run on
// the lab's worker pool (fanOut).
func (l *Lab) runVisibility(w io.Writer) error {
	Section(w, "Methodology — action community visibility: looking glass vs route collector")
	return l.fanOut(w, func(w io.Writer, p ixpgen.Profile) error {
		v, err := l.visibilityOf(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: LG sees %d action instances; collector sees %d over %d routes → %.1f%% invisible\n",
			p.IXP, v.LGActionInstances, v.CollectorActionInstances, v.CollectorRoutes,
			100*v.VisibilityGap())
		return nil
	})
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
		IPv4: true, IPv6: true}); err != nil {
		return none, err
	}
	// Both views are walked in place and counted route by route with
	// the analysis classifier; nothing is copied to be counted.
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
	ixps := make([]*analysis.Index, 0, len(l.Indexes))
	for _, ix := range l.Studied() {
		ixps = append(ixps, ix)
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
	for p, ix := range l.Studied() {
		if names != "" {
			names += ", "
		}
		names += p.IXP
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
	return l.perIXP(w, "§5.4 — targeted ASes by operator category (IPv4)", func(p ixpgen.Profile, ix *analysis.Index) {
		b := ix.CategoryBreakdown(l.Registry, false)
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
	})
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
