package report

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"iter"
	"os"
	"strconv"
	"sync"
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
	// Materialize makes Load the reference the equivalence tests and the
	// benchmark's output check hold the default path to: it folds the
	// same plan with full []bgp.Route snapshots through a DeltaApplier,
	// counting each day with analysis.CountDay, instead of indexing full
	// files off their columns and advancing each day's index. No command
	// sets it.
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
// profile, appending to a slice of its own, and the slices land on b in
// Table 1 order.
func (l *Lab) fanOut(b []byte, fn func(b []byte, p ixpgen.Profile) ([]byte, error)) ([]byte, error) {
	studied := make([]ixpgen.Profile, 0, len(l.Indexes))
	for p := range l.Studied() {
		studied = append(studied, p)
	}
	outs := make([][]byte, len(studied))
	if _, err := runPool(len(studied), l.Parallel, func(i int) (err error) {
		outs[i], err = fn(nil, studied[i])
		return err
	}); err != nil {
		return b, err
	}
	for _, out := range outs {
		b = append(b, out...)
	}
	return b, nil
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
// twelve-week chain `ixpgen -days 84 -valleys 9,41`
// writes at the same seed and scale, through the same writer
// (ixpgen.WriteSeries), one profile per task on at most workers
// workers (0 or less: GOMAXPROCS). The files are the same for any
// worker count.
func WriteGenerated(dir string, profiles []ixpgen.Profile, seed int64, scale float64, workers int) error {
	opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 84, ValleyDays: generatedValleys[:]}
	_, err := runPool(len(profiles), workers, func(i int) error {
		_, err := ixpgen.WriteSeries(dir, profiles[i], opts)
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

// Run executes one experiment by name, writing its paper-shaped output
// to w in one Write.
func (l *Lab) Run(w io.Writer, name string) error {
	p := scratch.Get().(*[]byte)
	defer scratch.Put(p)
	out, err := l.AppendRun((*p)[:0], name)
	*p = out[:0]
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// scratch recycles the buffers Run and RunMany render into.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// AppendRun executes one experiment by name and appends its
// paper-shaped output to b. On error what it appended is incomplete.
func (l *Lab) AppendRun(b []byte, name string) (_ []byte, err error) {
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
	return l.run(b, name)
}

// run is the uninstrumented experiment dispatch.
func (l *Lab) run(b []byte, name string) ([]byte, error) {
	switch name {
	case "table1":
		return l.runTable1(b), nil
	case "fig1":
		return l.perIXP(b, "Figure 1 — IXP-defined vs unknown communities", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendFig1(b, p.IXP, ix.Mix(false), ix.Mix(true))
		}), nil
	case "fig2":
		return l.perIXP(b, "Figure 2 — standard vs extended vs large", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendFig2(b, p.IXP, ix.Mix(false), ix.Mix(true))
		}), nil
	case "fig3":
		return l.perIXP(b, "Figure 3 — action vs informational communities", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			a4, i4 := ix.ActionInfoSplit(false)
			a6, i6 := ix.ActionInfoSplit(true)
			return AppendFig3(AppendFig3(b, p.IXP, "IPv4", a4, i4), p.IXP, "IPv6", a6, i6)
		}), nil
	case "fig4a":
		return l.perIXP(b, "Figure 4a — ASes and routes using action communities", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendFig4a(AppendFig4a(b, p.IXP, "IPv4", ix.Usage(false)), p.IXP, "IPv6", ix.Usage(true))
		}), nil
	case "fig4b":
		return l.perIXP(b, "Figure 4b — action community usage concentration", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendFig4b(b, p.IXP, analysis.ConcentrationCDF(ix.PerASActionCounts(false), ix.Usage(false).MembersAtRS))
		}), nil
	case "fig4c":
		return l.perIXP(b, "Figure 4c — route share vs community share per AS", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendFig4c(b, p.IXP, ix.RouteCommCorrelation(false))
		}), nil
	case "table2":
		return l.perIXP(b, "Table 2 — ASes using each action community type", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			b = AppendTable2(b, p.IXP, "IPv4", ix.ASesPerActionType(false))
			return AppendTable2(b, p.IXP, "IPv6", ix.ASesPerActionType(true))
		}), nil
	case "sec53":
		return l.perIXP(b, "§5.3 — action community occurrences per type", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			b = AppendSec53(b, p.IXP, "IPv4", ix.OccurrencesPerType(false))
			return AppendSec53(b, p.IXP, "IPv6", ix.OccurrencesPerType(true))
		}), nil
	case "fig5":
		return l.perIXP(b, "Figure 5 — top-20 action communities (IPv4)", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendTopCommunities(b, "Figure 5", p.IXP, ix.TopActionCommunities(false, 20), l.Registry)
		}), nil
	case "fig6":
		return l.perIXP(b, "Figure 6 — top-20 communities targeting non-RS members (IPv4)", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			nm := ix.NonMemberTargeting(false, 20)
			b = append(appendPct(append(append(b, p.IXP...), ": "...), nm.Share()), " of action instances ("...)
			b = append(strconv.AppendInt(b, int64(nm.Instances), 10), " of "...)
			b = append(strconv.AppendInt(b, int64(nm.Total), 10), ") target non-RS members\n"...)
			return AppendTopCommunities(b, "Figure 6", p.IXP, nm.Top, l.Registry)
		}), nil
	case "fig7":
		return l.perIXP(b, "Figure 7 — top-10 ASes targeting non-RS members (IPv4)", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			return AppendCulprits(b, p.IXP, ix.CulpritRanking(false, 10), ix.NonMemberShare(false).Instances, l.Registry)
		}), nil
	case "table3":
		return l.runStability(b, "Table 3 — daily variation over one week", 7), nil
	case "table4":
		return l.runStability(b, "Table 4 — weekly variation over twelve weeks", 84), nil
	case "sanitation":
		return l.perIXP(b, "§3 — sanitation: valley detection", func(b []byte, p ixpgen.Profile, _ *analysis.Index) []byte {
			series := l.Series[p.IXP]
			removed := len(sanitize.DetectValleys(series))
			b = append(append(b, p.IXP...), ": "...)
			b = append(strconv.AppendInt(b, int64(len(series)), 10), " snapshots, "...)
			b = append(strconv.AppendInt(b, int64(removed), 10), " removed as valleys ("...)
			b = append(appendFixed(b, 100*float64(removed)/float64(len(series)), 1), "%), "...)
			return append(strconv.AppendInt(b, int64(len(series)-removed), 10), " kept\n"...)
		}), nil
	case "extlarge":
		// Action instances by community flavour, including wide (32-bit)
		// targets only large communities can express.
		return l.perIXP(b, "Extension — action communities beyond the standard flavour", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
			f := ix.FlavourActions(false)
			b = append(append(b, p.IXP...), ": standard "...)
			for _, part := range [...]struct {
				n    int
				then string
			}{
				{f.StandardAction, " action / "}, {f.StandardInfo, " info; extended "},
				{f.ExtendedAction, " / "}, {f.ExtendedInfo, "; large "},
				{f.LargeAction, " / "}, {f.LargeInfo, "; wide-target large actions "},
				{f.LargeWideTargets, "\n"},
			} {
				b = append(strconv.AppendInt(b, int64(part.n), 10), part.then...)
			}
			return b
		}), nil
	case "sec56":
		return l.runHygiene(b), nil
	case "visibility":
		return l.runVisibility(b)
	case "intersect":
		return l.runIntersect(b), nil
	case "categories":
		return l.runCategories(b), nil
	case "summary":
		return l.runSummary(b), nil
	default:
		return b, fmt.Errorf("report: unknown experiment %q (known: %v)", name, ExperimentNames)
	}
}

// perIXP appends the section title, then what fn appends for each
// studied IXP, in Table 1 order.
func (l *Lab) perIXP(b []byte, title string, fn func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte) []byte {
	b = AppendSection(b, title)
	for p, ix := range l.Studied() {
		b = fn(b, p, ix)
	}
	return b
}

func (l *Lab) runTable1(b []byte) []byte {
	b = AppendSection(b, "Table 1 — the IXPs in numbers")
	rows := make([]Table1Row, 0, len(l.Indexes))
	for p, ix := range l.Studied() {
		rows = append(rows, Table1RowFromCounts(p.IXP, ix.DayCounts(),
			p.Location, p.AvgTraffic, int(float64(p.TotalMembers)*l.Scale)))
	}
	return AppendTable1(b, rows)
}

// runStability reports Tables 3/4 over each studied IXP's loaded daily
// series (l.Series).
func (l *Lab) runStability(b []byte, title string, days int) []byte {
	return l.perIXP(b, title, func(b []byte, p ixpgen.Profile, _ *analysis.Index) []byte {
		// The paper computes Appendix A over the sanitized dataset:
		// collection valleys, detected over the whole series, are
		// removed from the window of its first `days` calendar days
		// before measuring variation.
		series := l.Series[p.IXP]
		series = sanitize.Without(analysis.Window(series, days), sanitize.DetectValleys(series))
		if days > 7 {
			series = analysis.WeeklyRepresentatives(series)
		}
		b = AppendStability(b, p.IXP+"-v4", analysis.Stability(series, false))
		return AppendStability(b, p.IXP+"-v6", analysis.Stability(series, true))
	})
}

// runHygiene reports the §5.6 what-if: the impact of a "too many
// communities" import filter at several thresholds.
func (l *Lab) runHygiene(b []byte) []byte {
	thresholds := []int{10, 20, 40, 80}
	return l.perIXP(b, "§5.6 — impact of a 'too many communities' filter", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
		pct := ix.CommunityCountPercentiles(false, []float64{50, 90, 99, 100})
		b = append(append(b, p.IXP...), ": communities per route"...)
		for i, name := range [...]string{" p50=", " p90=", " p99=", " max="} {
			b = strconv.AppendInt(append(b, name...), int64(pct[i]), 10)
		}
		b = append(b, '\n')
		for _, h := range ix.HygieneFilterImpact(false, thresholds) {
			b = append(appendRight(append(b, "  threshold "...), h.Threshold, 3), ": drops "...)
			b = append(alignRight(appendFixed(b, 100*h.DropShare(), 1), len(b), 5), "% of routes, sheds "...)
			b = append(alignRight(appendFixed(b, 100*h.LoadShare(), 1), len(b), 5), "% of community load\n"...)
		}
		return b
	})
}

// runVisibility reports the methodological experiment behind the
// paper's vantage-point choice: the share of action communities that
// a classic route collector never sees because the RS scrubs them.
// Each profile simulates its own route server, so the profiles run on
// the lab's worker pool (fanOut).
func (l *Lab) runVisibility(b []byte) ([]byte, error) {
	b = AppendSection(b, "Methodology — action community visibility: looking glass vs route collector")
	return l.fanOut(b, func(b []byte, p ixpgen.Profile) ([]byte, error) {
		v, err := l.visibilityOf(p)
		if err != nil {
			return b, err
		}
		b = append(append(b, p.IXP...), ": LG sees "...)
		b = append(strconv.AppendInt(b, int64(v.LGActionInstances), 10), " action instances; collector sees "...)
		b = append(strconv.AppendInt(b, int64(v.CollectorActionInstances), 10), " over "...)
		b = append(strconv.AppendInt(b, int64(v.CollectorRoutes), 10), " routes → "...)
		return append(appendPct(b, v.VisibilityGap()), " invisible\n"...), nil
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
func (l *Lab) runIntersect(b []byte) []byte {
	b = AppendSection(b, "§5.4 — intersection of top-20 targets across IXPs")
	ixps := make([]*analysis.Index, 0, len(l.Indexes))
	for _, ix := range l.Studied() {
		ixps = append(ixps, ix)
	}
	pairs, common := analysis.TargetIntersections(ixps, false, 20)
	for _, pair := range pairs {
		b = append(append(append(append(b, pair.IXPA...), " ∩ "...), pair.IXPB...), ": "...)
		b = append(strconv.AppendInt(b, int64(len(pair.Shared)), 10), " shared targets ("...)
		b = append(appendNameList(b, pair.Shared, l.Registry, 6), ")\n"...)
	}
	b = strconv.AppendInt(append(b, "shared by all "...), int64(len(ixps)), 10)
	b = append(strconv.AppendInt(append(b, " IXPs: "...), int64(len(common)), 10), " targets ("...)
	return append(appendNameList(b, common, l.Registry, 10), ")\n"...)
}

// runSummary prints the paper's abstract-level findings as measured
// over this lab — the cross-IXP ranges of the three headline numbers.
func (l *Lab) runSummary(b []byte) []byte {
	b = AppendSection(b, "Headline findings (cf. the paper's abstract)")
	var asShare, actionShare, nmShare shareRange
	b = append(b, "over "...)
	first := true
	for p, ix := range l.Studied() {
		if !first {
			b = append(b, ", "...)
		}
		b, first = append(b, p.IXP...), false
		asShare.update(ix.Usage(false).ASShare())
		actionShare.update(ix.ActionShare(false))
		nmShare.update(ix.NonMemberShare(false).Share())
	}
	b = append(b, " (IPv4):\n"...)
	b = asShare.appendTo(append(b, "members using action communities in ≥1 route: "...))
	b = append(b, " (paper: >35.7%, up to 54.1%)\n"...)
	b = actionShare.appendTo(append(b, "action share of IXP-defined standard communities: "...))
	b = append(b, " (paper: ≥66.6%)\n"...)
	b = nmShare.appendTo(append(b, "action communities targeting non-RS members: "...))
	return append(b, " (paper: ≥31.8%)\n"...)
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

// appendTo appends the range as "min%–max%".
func (r shareRange) appendTo(b []byte) []byte {
	return appendPct(append(appendPct(b, r.min), "–"...), r.max)
}

// runCategories reports the §5.4 target-category breakdown.
func (l *Lab) runCategories(b []byte) []byte {
	return l.perIXP(b, "§5.4 — targeted ASes by operator category (IPv4)", func(b []byte, p ixpgen.Profile, ix *analysis.Index) []byte {
		br := ix.CategoryBreakdown(l.Registry, false)
		b = append(append(b, p.IXP...), " (content+cloud share: all "...)
		b = append(appendPct(b, analysis.ContentShare(br.All)), ", non-members "...)
		b = append(appendPct(b, analysis.ContentShare(br.NonMembers)), ")\n"...)
		for _, row := range br.NonMembers {
			b = append(b, "  non-member "...)
			b = append(padTo(append(b, row.Category.String()...), len(b), 18), ' ')
			b = append(appendPct(append(appendRight(b, row.Instances, 8), " ("...), row.Share), ')')
			if row.Category == asdb.Unknown {
				b = append(b, "  [synthetic tail]"...)
			}
			b = append(b, '\n')
		}
		return b
	})
}

// appendNameList appends up to max AS names, or "none".
func appendNameList(b []byte, asns []uint32, reg *asdb.Registry, max int) []byte {
	if len(asns) == 0 {
		return append(b, "none"...)
	}
	for i, asn := range asns {
		if i == max {
			return append(b, ", …"...)
		}
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendASName(b, reg, asn)
	}
	return b
}
