package analysis

// The reference oracle. Each *Direct function computes one analysis
// the way the paper describes it: walk the materialized snapshot's
// routes and classify every community instance through the scheme,
// per analysis, with no index, no interning and no state shared with
// the fold in advance.go. They were the package's production path
// before the index existed; now they exist only so that every source
// of the fold (NewIndex, IndexFromReader, IndexSeriesFromReader) and
// every day Advance derives can be compared with them accessor by
// accessor once materialized (checkIndexMatchesDirect), and on Counts
// and DayCounts before (checkCountsMatchDirect). CountDay, the series
// count of a routed snapshot, is held to the same oracle. No builder is
// checked only against another builder.

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// checkIndexMatchesDirect asserts every accessor of ix reproduces the
// oracle over s — the materialized snapshot ix claims to classify —
// for both families.
func checkIndexMatchesDirect(t testing.TB, tag string, ix *Index, s *collector.Snapshot, scheme *dictionary.Scheme) {
	t.Helper()
	reg := asdb.Default()
	want := DayCountsDirect(s)
	if got := ix.DayCounts(); got != want {
		t.Errorf("%s: DayCounts: indexed %+v != direct %+v", tag, got, want)
	}
	if got := CountDay(s); got != want {
		t.Errorf("%s: CountDay %+v != direct %+v", tag, got, want)
	}
	for _, v6 := range []bool{false, true} {
		eq := func(name string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s (v6=%v): indexed %+v != direct %+v", tag, name, v6, got, want)
			}
		}
		eq("Usage", ix.Usage(v6), ComputeUsageDirect(s, scheme, v6))
		eq("Mix", ix.Mix(v6), ComputeMixDirect(s, scheme, v6))
		a, i := ix.ActionInfoSplit(v6)
		da, di := ActionInfoSplitDirect(s, scheme, v6)
		eq("ActionInfoSplit", [2]int{a, i}, [2]int{da, di})
		eq("FlavourActions", ix.FlavourActions(v6), ComputeFlavourActionsDirect(s, scheme, v6))
		eq("PerASActionCounts", ix.PerASActionCounts(v6), PerASActionCountsDirect(s, scheme, v6))
		eq("RouteCommCorrelation", ix.RouteCommCorrelation(v6), RouteCommCorrelationDirect(s, scheme, v6))
		eq("ASesPerActionType", ix.ASesPerActionType(v6), ASesPerActionTypeDirect(s, scheme, v6))
		eq("OccurrencesPerType", ix.OccurrencesPerType(v6), OccurrencesPerTypeDirect(s, scheme, v6))
		for _, k := range []int{0, 3, 20} {
			eq("TopActionCommunities", ix.TopActionCommunities(v6, k), TopActionCommunitiesDirect(s, scheme, v6, k))
			eq("NonMemberTargeting", ix.NonMemberTargeting(v6, k), ComputeNonMemberTargetingDirect(s, scheme, v6, k))
			eq("CulpritRanking", ix.CulpritRanking(v6, k), CulpritRankingDirect(s, scheme, v6, k))
		}
		eq("CategoryBreakdown", ix.CategoryBreakdown(reg, v6), ComputeCategoryBreakdownDirect(s, scheme, reg, v6))
		eq("HygieneFilterImpact", ix.HygieneFilterImpact(v6, []int{0, 2, 10}), HygieneFilterImpactDirect(s, v6, []int{0, 2, 10}))
		eq("CommunityCountPercentiles",
			ix.CommunityCountPercentiles(v6, []float64{0, 50, 90, 100}),
			CommunityCountPercentilesDirect(s, v6, []float64{0, 50, 90, 100}))
		eq("Counts", ix.Counts(v6), CountSnapshotDirect(s, v6))

		// The point lookups read the same aggregates one key at a time.
		perAS := PerASActionCountsDirect(s, scheme, v6)
		culprits := map[uint32]int{}
		for _, c := range CulpritRankingDirect(s, scheme, v6, 0) {
			culprits[c.ASN] = c.Count
		}
		targets := TopTargetsDirect(s, scheme, v6)
		nonMember := map[bgp.Community]int{}
		for _, cc := range ComputeNonMemberTargetingDirect(s, scheme, v6, 0).Top {
			nonMember[cc.Community] = cc.Count
		}
		routes := map[uint32]int{}
		for i := range s.Routes {
			if r := &s.Routes[i]; r.IsIPv6() == v6 {
				routes[r.PeerAS()]++
			}
		}
		for asn, n := range routes {
			eq("ASActivity", ix.ASActivity(asn, v6), ASActivity{
				Routes:             n,
				ActionInstances:    perAS[asn],
				TargetedInstances:  targets[asn],
				NonMemberTargeting: culprits[asn],
			})
		}
		for _, cc := range TopActionCommunitiesDirect(s, scheme, v6, 0) {
			eq("CommunityUsage", ix.CommunityUsage(cc.Community, v6), CommunityUsage{
				Class:              cc.Class,
				ActionInstances:    cc.Count,
				NonMemberInstances: nonMember[cc.Community],
			})
		}
	}
}

// ASesPerActionTypeDirect is the direct-classify twin of
// ASesPerActionType.
func ASesPerActionTypeDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) []TypeUsage {
	users := map[dictionary.ActionType]map[uint32]bool{}
	for _, t := range dictionary.ActionTypes {
		users[t] = make(map[uint32]bool)
	}
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			users[cl.Action][r.PeerAS()] = true
		})
	}
	members := 0
	for _, m := range s.Members {
		if (v6 && m.IPv6) || (!v6 && m.IPv4) {
			members++
		}
	}
	out := make([]TypeUsage, 0, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		out = append(out, TypeUsage{
			Type:  t,
			ASes:  len(users[t]),
			Share: ratio(len(users[t]), members),
		})
	}
	return out
}

// OccurrencesPerTypeDirect is the direct-classify twin of
// OccurrencesPerType.
func OccurrencesPerTypeDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) map[dictionary.ActionType]int {
	out := make(map[dictionary.ActionType]int, len(dictionary.ActionTypes))
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			out[cl.Action]++
		})
	}
	return out
}

// TopActionCommunitiesDirect is the direct-classify twin of
// TopActionCommunities.
func TopActionCommunitiesDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []CommunityCount {
	counts := make(map[bgp.Community]int, 128)
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(c bgp.Community, _ dictionary.Class) {
			counts[c]++
		})
	}
	return rankCommunitiesDirect(counts, scheme, k)
}

// fullRank is the reference the rankings are held to: every entry,
// sorted by count (desc) then key (asc), truncated to k afterwards. It
// shares nothing with topK's selection.
func fullRank[K ~uint32](counts map[K]int, k int) []ranked[K] {
	out := make([]ranked[K], 0, len(counts))
	for key, n := range counts {
		out = append(out, ranked[K]{key, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].key < out[j].key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func rankCommunitiesDirect(counts map[bgp.Community]int, scheme *dictionary.Scheme, k int) []CommunityCount {
	out := []CommunityCount{}
	for _, e := range fullRank(counts, k) {
		out = append(out, CommunityCount{Community: e.key, Class: scheme.Classify(e.key), Count: e.n})
	}
	return out
}

// ComputeNonMemberTargetingDirect is the direct-classify twin of
// ComputeNonMemberTargeting.
func ComputeNonMemberTargetingDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) NonMemberTargeting {
	members := s.MemberSet()
	counts := make(map[bgp.Community]int, 64)
	res := NonMemberTargeting{}
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(c bgp.Community, cl dictionary.Class) {
			res.Total++
			if cl.Target == dictionary.TargetPeer && !members[cl.TargetASN] {
				res.Instances++
				counts[c]++
			}
		})
	}
	res.Top = rankCommunitiesDirect(counts, scheme, k)
	return res
}

// CulpritRankingDirect is the direct-classify twin of CulpritRanking.
func CulpritRankingDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []Culprit {
	members := s.MemberSet()
	counts := make(map[uint32]int, len(s.Members))
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			if cl.Target == dictionary.TargetPeer && !members[cl.TargetASN] {
				counts[r.PeerAS()]++
			}
		})
	}
	out := []Culprit{}
	for _, e := range fullRank(counts, k) {
		out = append(out, Culprit{ASN: e.key, Count: e.n})
	}
	return out
}

// TopTargetsDirect counts the action instances that name each
// targeted AS, member or not: what ASActivity's TargetedInstances
// reads one key at a time.
func TopTargetsDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) map[uint32]int {
	counts := make(map[uint32]int, 128)
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			if cl.Target == dictionary.TargetPeer {
				counts[cl.TargetASN]++
			}
		})
	}
	return counts
}

// ComputeUsageDirect is the direct-classify twin of ComputeUsage.
func ComputeUsageDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) Usage {
	u := Usage{}
	users := make(map[uint32]bool, len(s.Members))
	for _, m := range s.Members {
		if (v6 && m.IPv6) || (!v6 && m.IPv4) {
			u.MembersAtRS++
		}
	}
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		u.RoutesTotal++
		n := 0
		for _, c := range r.Communities {
			if scheme.Classify(c).IsAction() {
				n++
			}
		}
		if n > 0 {
			u.RoutesTagged++
			u.ActionInstances += n
			users[r.PeerAS()] = true
		}
	}
	u.ASesUsing = len(users)
	return u
}

// PerASActionCountsDirect is the direct-classify twin of
// PerASActionCounts.
func PerASActionCountsDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) map[uint32]int {
	counts := make(map[uint32]int, len(s.Members))
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		n := 0
		for _, c := range r.Communities {
			if scheme.Classify(c).IsAction() {
				n++
			}
		}
		if n > 0 {
			counts[r.PeerAS()] += n
		}
	}
	return counts
}

// RouteCommCorrelationDirect is the direct-classify twin of
// RouteCommCorrelation.
func RouteCommCorrelationDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) []CorrelationPoint {
	routeCounts := make(map[uint32]int, len(s.Members))
	totalRoutes := 0
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		routeCounts[r.PeerAS()]++
		totalRoutes++
	}
	commCounts := PerASActionCountsDirect(s, scheme, v6)
	totalComms := 0
	for _, v := range commCounts {
		totalComms += v
	}
	out := make([]CorrelationPoint, 0, len(routeCounts))
	for asn, rc := range routeCounts {
		out = append(out, CorrelationPoint{
			ASN:       asn,
			RouteFrac: ratio(rc, totalRoutes),
			CommFrac:  ratio(commCounts[asn], totalComms),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// ComputeFlavourActionsDirect is the direct-classify twin of
// ComputeFlavourActions.
func ComputeFlavourActionsDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) FlavourActions {
	var f FlavourActions
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		for _, c := range r.Communities {
			cl := scheme.Classify(c)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				f.StandardAction++
			} else {
				f.StandardInfo++
			}
		}
		for _, e := range r.ExtCommunities {
			cl := scheme.ClassifyExtended(e)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				f.ExtendedAction++
			} else {
				f.ExtendedInfo++
			}
		}
		for _, l := range r.LargeCommunities {
			cl := scheme.ClassifyLarge(l)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				f.LargeAction++
				if cl.Target == dictionary.TargetPeer && cl.TargetASN > 0xFFFF {
					f.LargeWideTargets++
				}
			} else {
				f.LargeInfo++
			}
		}
	}
	return f
}

// ComputeMixDirect is the direct-classify twin of ComputeMix.
func ComputeMixDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) Mix {
	var m Mix
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		for _, c := range r.Communities {
			if scheme.Classify(c).Known {
				m.DefinedStandard++
			} else {
				m.UnknownStandard++
			}
		}
		for _, e := range r.ExtCommunities {
			if scheme.ClassifyExtended(e).Known {
				m.DefinedExtended++
			} else {
				m.UnknownExtended++
			}
		}
		for _, l := range r.LargeCommunities {
			if scheme.ClassifyLarge(l).Known {
				m.DefinedLarge++
			} else {
				m.UnknownLarge++
			}
		}
	}
	return m
}

// ActionInfoSplitDirect is the direct-classify twin of ActionInfoSplit.
func ActionInfoSplitDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) (action, info int) {
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		for _, c := range r.Communities {
			cl := scheme.Classify(c)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				action++
			} else {
				info++
			}
		}
	}
	return action, info
}

// classifyRouteActions calls fn for every known action community on a
// route, the shared walk under most §5 analyses.
func classifyRouteActions(r bgp.Route, scheme *dictionary.Scheme, fn func(bgp.Community, dictionary.Class)) {
	for _, c := range r.Communities {
		cl := scheme.Classify(c)
		if cl.IsAction() {
			fn(c, cl)
		}
	}
}

// ComputeCategoryBreakdownDirect is the direct-classify twin of
// ComputeCategoryBreakdown.
func ComputeCategoryBreakdownDirect(s *collector.Snapshot, scheme *dictionary.Scheme, reg *asdb.Registry, v6 bool) CategoryBreakdown {
	members := s.MemberSet()
	all := make(map[asdb.Category]int)
	nonMembers := make(map[asdb.Category]int)
	allTotal, nmTotal := 0, 0
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			if cl.Target != dictionary.TargetPeer {
				return
			}
			cat := reg.CategoryOf(cl.TargetASN)
			all[cat]++
			allTotal++
			if !members[cl.TargetASN] {
				nonMembers[cat]++
				nmTotal++
			}
		})
	}
	return CategoryBreakdown{
		All:        categoryShares(all, allTotal),
		NonMembers: categoryShares(nonMembers, nmTotal),
	}
}

// HygieneFilterImpactDirect is the direct twin of HygieneFilterImpact.
func HygieneFilterImpactDirect(s *collector.Snapshot, v6 bool, thresholds []int) []HygieneImpact {
	counts := communityCounts(s, v6)
	totalComms := 0
	for _, c := range counts {
		totalComms += c
	}
	out := make([]HygieneImpact, 0, len(thresholds))
	for _, th := range thresholds {
		h := HygieneImpact{Threshold: th, RoutesTotal: len(counts), CommunitiesTotal: totalComms}
		for _, c := range counts {
			if c > th {
				h.RoutesDropped++
				h.CommunitiesDropped += c
			}
		}
		out = append(out, h)
	}
	return out
}

// CommunityCountPercentilesDirect is the direct twin of
// CommunityCountPercentiles.
func CommunityCountPercentilesDirect(s *collector.Snapshot, v6 bool, percentiles []float64) []int {
	return countPercentiles(communityCounts(s, v6), percentiles)
}

// countPercentiles sorts counts — one entry per route — in place and
// reads off the requested percentiles: the definition the histogram
// walk of CommunityCountPercentiles is held to.
func countPercentiles(counts []int, percentiles []float64) []int {
	if len(counts) == 0 {
		return make([]int, len(percentiles))
	}
	sort.Ints(counts)
	out := make([]int, len(percentiles))
	for i, p := range percentiles {
		idx := int(p / 100 * float64(len(counts)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(counts) {
			idx = len(counts) - 1
		}
		out[i] = counts[idx]
	}
	return out
}

// communityCounts walks one family's routes for their §5.6 community
// counts.
func communityCounts(s *collector.Snapshot, v6 bool) []int {
	var counts []int
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		counts = append(counts, r.CommunityCount())
	}
	return counts
}

// DayCountsDirect is the direct twin of CountDay and Index.DayCounts:
// each family counted in a walk of its own.
func DayCountsDirect(s *collector.Snapshot) DayCounts {
	return DayCounts{Date: s.Date, Members: len(s.Members), V4: CountSnapshotDirect(s, false), V6: CountSnapshotDirect(s, true)}
}

// CountSnapshotDirect is one family's Appendix A row.
func CountSnapshotDirect(s *collector.Snapshot, v6 bool) SnapshotCounts {
	var c SnapshotCounts
	if v6 {
		c.Members = s.MembersV6()
	} else {
		c.Members = s.MembersV4()
	}
	prefixes := make(map[netip.Prefix]bool)
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		c.Routes++
		c.Communities += r.CommunityCount()
		prefixes[r.Prefix] = true
	}
	c.Prefixes = len(prefixes)
	return c
}

// directAnalysisBattery runs the single-snapshot §5 battery on the
// oracle: every entry point re-walks the snapshot and re-classifies
// each community instance.
func directAnalysisBattery(s *collector.Snapshot, scheme *dictionary.Scheme) int {
	sink := 0
	for _, v6 := range []bool{false, true} {
		u := ComputeUsageDirect(s, scheme, v6)
		sink += u.ActionInstances
		sink += ComputeMixDirect(s, scheme, v6).Total()
		a, i := ActionInfoSplitDirect(s, scheme, v6)
		sink += a + i
		sink += ComputeFlavourActionsDirect(s, scheme, v6).TotalAction()
		sink += len(PerASActionCountsDirect(s, scheme, v6))
		sink += len(RouteCommCorrelationDirect(s, scheme, v6))
		sink += len(ASesPerActionTypeDirect(s, scheme, v6))
		sink += len(OccurrencesPerTypeDirect(s, scheme, v6))
		sink += len(TopActionCommunitiesDirect(s, scheme, v6, 20))
		sink += ComputeNonMemberTargetingDirect(s, scheme, v6, 20).Instances
		sink += len(CulpritRankingDirect(s, scheme, v6, 10))
	}
	return sink
}

// indexedAnalysisBattery is the same battery served by one classified
// snapshot index.
func indexedAnalysisBattery(ix *Index) int {
	sink := 0
	for _, v6 := range []bool{false, true} {
		sink += ix.Usage(v6).ActionInstances
		sink += ix.Mix(v6).Total()
		a, i := ix.ActionInfoSplit(v6)
		sink += a + i
		sink += ix.FlavourActions(v6).TotalAction()
		sink += len(ix.PerASActionCounts(v6))
		sink += len(ix.RouteCommCorrelation(v6))
		sink += len(ix.ASesPerActionType(v6))
		sink += len(ix.OccurrencesPerType(v6))
		sink += len(ix.TopActionCommunities(v6, 20))
		sink += ix.NonMemberTargeting(v6, 20).Instances
		sink += len(ix.CulpritRanking(v6, 10))
	}
	return sink
}

// classifyBenchSnapshot is the DE-CIX workload at the root suite's
// bench scale.
func classifyBenchSnapshot(b *testing.B) (*collector.Snapshot, *dictionary.Scheme) {
	b.Helper()
	p := ixpgen.ProfileByName("DE-CIX")
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	return w.Snapshot("2021-10-04"), p.Scheme
}

// BenchmarkAblation_ClassifyDirect vs ...ClassifyIndexed compare what
// the index replaced with the index, over the same DE-CIX snapshot:
// per-analysis re-classification against one classification pass plus
// accessor reads. Both run on one goroutine.
func BenchmarkAblation_ClassifyDirect(b *testing.B) {
	s, scheme := classifyBenchSnapshot(b)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += directAnalysisBattery(s, scheme)
	}
	if sink == 0 {
		b.Fatal("empty battery")
	}
}

// BenchmarkAblation_ClassifyIndexed builds a fresh index every
// iteration — the cost shown includes the full classification pass,
// not just cache reads.
func BenchmarkAblation_ClassifyIndexed(b *testing.B) {
	s, scheme := classifyBenchSnapshot(b)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += indexedAnalysisBattery(NewIndex(s, scheme))
	}
	if sink == 0 {
		b.Fatal("empty battery")
	}
}

// TestTopKMatchesFullSort holds the bounded selection to the prefix of
// the full sort, over random histograms drawn from few distinct counts
// so that most of the order is decided by the key tie-break.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(300)
		counts := make(map[uint32]int, n)
		for len(counts) < n {
			counts[rng.Uint32()>>rng.Intn(32)] = rng.Intn(1 + rng.Intn(6))
		}
		for _, k := range []int{0, 1, n - 1, n, n + 1, 1 + rng.Intn(n)} {
			if got, want := topK(counts, k), fullRank(counts, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: topK(%d entries, k=%d) diverges from the full sort:\n got %v\nwant %v", round, n, k, got, want)
			}
		}
	}
}

// TestHistogramPercentiles holds the cumulative walk over the §5.6
// histogram to countPercentiles over the distribution expanded to one
// count per route, an empty family included.
func TestHistogramPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	pcts := []float64{0, 50, 99, 100, 90, -5, 250}
	for round := 0; round < 200; round++ {
		hist := make(map[int]int)
		var expanded []int
		for i := rng.Intn(12); i > 0; i-- { // sometimes none: an empty family
			c, n := rng.Intn(40), 1+rng.Intn(50)
			hist[c] += n
			for ; n > 0; n-- {
				expanded = append(expanded, c)
			}
		}
		ix := &Index{}
		ix.fam[0].commHist = hist
		if got, want := ix.CommunityCountPercentiles(false, pcts), countPercentiles(expanded, pcts); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: histogram %v: percentiles %v = %v, expanded distribution gives %v", round, hist, pcts, got, want)
		}
	}
	if got := new(Index).CommunityCountPercentiles(true, pcts); !reflect.DeepEqual(got, make([]int, len(pcts))) {
		t.Fatalf("empty family: %v, want zeros", got)
	}
}
