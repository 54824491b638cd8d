package analysis

import (
	"math"
	"slices"
	"testing"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// testSnapshot builds a tiny hand-checked snapshot at a DE-CIX-scheme
// IXP with three members (100, 200, 6939) and one non-member target
// (15169):
//
//	AS100:  r1 v4 [0:15169, 0:200, info0]   (2 actions: 1 non-member)
//	        r2 v4 [private 100:7]           (unknown only)
//	AS200:  r3 v4 [6695:100, 65501:100]     (AOT member + prepend member)
//	        r4 v6 [0:15169]                 (1 action, non-member)
//	AS6939: r5 v4 [0:15169, 0:16276, 65535:666]  (2 DNA non-member + blackhole)
func testSnapshot(t testing.TB) (*collector.Snapshot, *dictionary.Scheme) {
	t.Helper()
	scheme := dictionary.ProfileByName("DE-CIX")
	info0, _ := scheme.Info(0)
	mk := func(peer uint32, idx int, v6 bool, comms ...bgp.Community) bgp.Route {
		r := bgp.Route{ASPath: bgp.ASPath{peer}, Communities: comms}
		if v6 {
			r.Prefix = netutil.SyntheticV6Prefix(idx)
			r.NextHop = netutil.PeerAddrV6(1)
		} else {
			r.Prefix = netutil.SyntheticV4Prefix(idx)
			r.NextHop = netutil.PeerAddrV4(1)
		}
		return r
	}
	s := &collector.Snapshot{
		IXP:  "DE-CIX",
		Date: "2021-10-04",
		Members: []collector.Member{
			{ASN: 100, IPv4: true, IPv6: true},
			{ASN: 200, IPv4: true, IPv6: true},
			{ASN: 6939, IPv4: true, IPv6: false},
		},
		Routes: []bgp.Route{
			mk(100, 0, false, bgp.MustParseCommunity("0:15169"), bgp.MustParseCommunity("0:200"), info0),
			mk(100, 1, false, bgp.NewCommunity(100, 7)),
			mk(200, 2, false, bgp.MustParseCommunity("6695:100"), bgp.MustParseCommunity("65501:100")),
			mk(200, 3, true, bgp.MustParseCommunity("0:15169")),
			mk(6939, 4, false,
				bgp.MustParseCommunity("0:15169"), bgp.MustParseCommunity("0:16276"), bgp.BlackholeWellKnown),
		},
	}
	s.Normalize()
	return s, scheme
}

func TestComputeMix(t *testing.T) {
	s, scheme := testSnapshot(t)
	ix := NewIndex(s, scheme)
	m := ix.Mix(false)
	// v4 standard instances: r1: 3 defined; r2: 1 unknown; r3: 2
	// defined; r5: 3 defined → defined 8, unknown 1.
	if m.DefinedStandard != 8 || m.UnknownStandard != 1 {
		t.Errorf("mix = %+v", m)
	}
	if m.Total() != 9 || m.Defined() != 8 {
		t.Errorf("totals: %d/%d", m.Total(), m.Defined())
	}
	if got := m.DefinedShare(); math.Abs(got-8.0/9) > 1e-9 {
		t.Errorf("defined share = %f", got)
	}
	if m.StandardShare() != 1.0 {
		t.Errorf("standard share = %f (no ext/large present)", m.StandardShare())
	}

	m6 := ix.Mix(true)
	if m6.DefinedStandard != 1 || m6.Total() != 1 {
		t.Errorf("v6 mix = %+v", m6)
	}
}

func TestComputeMixExtendedLarge(t *testing.T) {
	s, scheme := testSnapshot(t)
	s.Routes[0].ExtCommunities = []bgp.ExtendedCommunity{
		bgp.NewTwoOctetASExtended(6, scheme.RSASN, 1), // IXP-defined
		bgp.NewTwoOctetASExtended(6, 4999, 1),         // foreign
	}
	s.Routes[0].LargeCommunities = []bgp.LargeCommunity{
		{Global: uint32(scheme.RSASN), Local1: 1, Local2: 2}, // IXP-defined
	}
	m := NewIndex(s, scheme).Mix(false)
	if m.DefinedExtended != 1 || m.UnknownExtended != 1 || m.DefinedLarge != 1 {
		t.Errorf("ext/large mix = %+v", m)
	}
	if m.ExtendedShare() <= 0 || m.LargeShare() <= 0 {
		t.Error("shares must be positive")
	}
}

func TestActionInfoSplit(t *testing.T) {
	s, scheme := testSnapshot(t)
	ix := NewIndex(s, scheme)
	action, info := ix.ActionInfoSplit(false)
	// v4 defined: 7 action (0:15169, 0:200, 6695:100, 65501:100,
	// 0:15169, 0:16276, 65535:666) + 1 info.
	if action != 7 || info != 1 {
		t.Errorf("action/info = %d/%d", action, info)
	}
	if got := ix.ActionShare(false); math.Abs(got-7.0/8) > 1e-9 {
		t.Errorf("action share = %f", got)
	}
}

func TestComputeUsage(t *testing.T) {
	s, scheme := testSnapshot(t)
	ix := NewIndex(s, scheme)
	u := ix.Usage(false)
	if u.MembersAtRS != 3 {
		t.Errorf("members = %d", u.MembersAtRS)
	}
	if u.ASesUsing != 3 { // 100, 200, 6939 all tag at least one v4 route
		t.Errorf("ASes = %d", u.ASesUsing)
	}
	if u.RoutesTotal != 4 || u.RoutesTagged != 3 { // r2 untagged
		t.Errorf("routes = %d/%d", u.RoutesTagged, u.RoutesTotal)
	}
	if u.ActionInstances != 7 {
		t.Errorf("instances = %d", u.ActionInstances)
	}

	u6 := ix.Usage(true)
	if u6.MembersAtRS != 2 || u6.ASesUsing != 1 || u6.RoutesTagged != 1 {
		t.Errorf("v6 usage = %+v", u6)
	}
}

func TestPerASCountsAndCDF(t *testing.T) {
	s, scheme := testSnapshot(t)
	counts := NewIndex(s, scheme).PerASActionCounts(false)
	if counts[100] != 2 || counts[200] != 2 || counts[6939] != 3 {
		t.Errorf("counts = %v", counts)
	}
	cdf := ConcentrationCDF(counts, 3)
	if len(cdf) != 3 {
		t.Fatalf("cdf = %v", cdf)
	}
	// Sorted desc: 3,2,2 of total 7.
	if math.Abs(cdf[0].CommFraction-3.0/7) > 1e-9 {
		t.Errorf("cdf[0] = %+v", cdf[0])
	}
	if cdf[2].CommFraction != 1.0 || cdf[2].ASFraction != 1.0 {
		t.Errorf("cdf[2] = %+v", cdf[2])
	}
	if TopShare(cdf, 0.34) != 3.0/7 {
		t.Errorf("TopShare(0.34) = %f", TopShare(cdf, 0.34))
	}
	if TopShare(cdf, 0.1) != 0 {
		t.Errorf("TopShare below first point must be 0")
	}
	if ConcentrationCDF(counts, 0) != nil {
		t.Error("zero members must give nil CDF")
	}
}

func TestRouteCommCorrelation(t *testing.T) {
	s, scheme := testSnapshot(t)
	points := NewIndex(s, scheme).RouteCommCorrelation(false)
	if len(points) != 3 {
		t.Fatalf("points = %v", points)
	}
	for _, p := range points {
		switch p.ASN {
		case 100:
			if math.Abs(p.RouteFrac-0.5) > 1e-9 || math.Abs(p.CommFrac-2.0/7) > 1e-9 {
				t.Errorf("AS100 point = %+v", p)
			}
		case 6939:
			if math.Abs(p.RouteFrac-0.25) > 1e-9 || math.Abs(p.CommFrac-3.0/7) > 1e-9 {
				t.Errorf("AS6939 point = %+v", p)
			}
		}
	}
}

func TestASesPerActionType(t *testing.T) {
	s, scheme := testSnapshot(t)
	rows := NewIndex(s, scheme).ASesPerActionType(false)
	want := map[dictionary.ActionType]int{
		dictionary.DoNotAnnounceTo: 2, // 100, 6939
		dictionary.AnnounceOnlyTo:  1, // 200
		dictionary.PrependTo:       1, // 200
		dictionary.Blackhole:       1, // 6939
	}
	for _, row := range rows {
		if row.ASes != want[row.Type] {
			t.Errorf("%v: ASes = %d, want %d", row.Type, row.ASes, want[row.Type])
		}
	}
	if rows[0].Share != 2.0/3 {
		t.Errorf("DNA share = %f", rows[0].Share)
	}
}

func TestOccurrencesPerType(t *testing.T) {
	s, scheme := testSnapshot(t)
	occ := NewIndex(s, scheme).OccurrencesPerType(false)
	if occ[dictionary.DoNotAnnounceTo] != 4 || occ[dictionary.AnnounceOnlyTo] != 1 ||
		occ[dictionary.PrependTo] != 1 || occ[dictionary.Blackhole] != 1 {
		t.Errorf("occ = %v", occ)
	}
}

func TestTopActionCommunities(t *testing.T) {
	s, scheme := testSnapshot(t)
	ix := NewIndex(s, scheme)
	top := ix.TopActionCommunities(false, 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Community != bgp.MustParseCommunity("0:15169") || top[0].Count != 2 {
		t.Errorf("top[0] = %+v", top[0])
	}
	// Ties (count 1) break by community value ascending.
	if top[1].Community >= top[2].Community {
		t.Errorf("tie break broken: %v before %v", top[1].Community, top[2].Community)
	}
	all := ix.TopActionCommunities(false, 0)
	if len(all) != 6 {
		t.Errorf("all communities = %d, want 6 distinct", len(all))
	}
}

func TestNonMemberTargeting(t *testing.T) {
	s, scheme := testSnapshot(t)
	nm := NewIndex(s, scheme).NonMemberTargeting(false, 10)
	// Total actions 7. Non-member-targeting: 0:15169 ×2, 0:16276 ×1.
	// (0:200, 6695:100, 65501:100 target members; blackhole no target.)
	if nm.Total != 7 || nm.Instances != 3 {
		t.Errorf("nm = %+v", nm)
	}
	if math.Abs(nm.Share()-3.0/7) > 1e-9 {
		t.Errorf("share = %f", nm.Share())
	}
	if nm.Top[0].Community != bgp.MustParseCommunity("0:15169") || nm.Top[0].Count != 2 {
		t.Errorf("top = %+v", nm.Top[0])
	}
}

func TestCulpritRanking(t *testing.T) {
	s, scheme := testSnapshot(t)
	culprits := NewIndex(s, scheme).CulpritRanking(false, 10)
	if len(culprits) != 2 {
		t.Fatalf("culprits = %v", culprits)
	}
	if culprits[0].ASN != 6939 || culprits[0].Count != 2 {
		t.Errorf("culprits[0] = %+v", culprits[0])
	}
	if culprits[1].ASN != 100 || culprits[1].Count != 1 {
		t.Errorf("culprits[1] = %+v", culprits[1])
	}
}

func TestTopTargets(t *testing.T) {
	s, scheme := testSnapshot(t)
	targets := NewIndex(s, scheme).TopTargets(false, 0)
	byASN := map[uint32]TargetedAS{}
	for _, tg := range targets {
		byASN[tg.ASN] = tg
	}
	if tg := byASN[15169]; tg.Count != 2 || tg.IsMember {
		t.Errorf("google = %+v", tg)
	}
	if tg := byASN[100]; tg.Count != 2 || !tg.IsMember {
		t.Errorf("AS100 = %+v", tg)
	}
	if tg := byASN[200]; tg.Count != 1 || !tg.IsMember {
		t.Errorf("AS200 = %+v", tg)
	}
}

func TestCountDayAndStability(t *testing.T) {
	s, _ := testSnapshot(t)
	d := CountDay(s)
	if d.Date != s.Date || d.Members != len(s.Members) {
		t.Errorf("day = %+v", d)
	}
	if c4 := d.V4; c4.Members != 3 || c4.Routes != 4 || c4.Prefixes != 4 || c4.Communities != 9 {
		t.Errorf("counts v4 = %+v", c4)
	}
	if c6 := d.V6; c6.Members != 2 || c6.Routes != 1 {
		t.Errorf("counts v6 = %+v", c6)
	}

	// Stability over three identical days: zero variation.
	table := Stability([]DayCounts{d, d, d}, false)
	if table.MaxDiffPct() != 0 {
		t.Errorf("identical days: diff = %f", table.MaxDiffPct())
	}

	// Add a grown day: +1 member.
	s2, _ := testSnapshot(t)
	s2.Members = append(s2.Members, collector.Member{ASN: 999, IPv4: true})
	table = Stability([]DayCounts{d, CountDay(s2)}, false)
	if math.Abs(table.Members.DiffPct-100.0/3) > 1e-9 {
		t.Errorf("members diff = %f", table.Members.DiffPct)
	}

	// A minimum of zero reports no percentual difference, wherever in
	// the window it falls.
	zero := DayCounts{Date: d.Date}
	if table = Stability([]DayCounts{d, CountDay(s2), zero}, false); table.Members.Min != 0 || table.Members.DiffPct != 0 {
		t.Errorf("window with an empty day: members %+v", table.Members)
	}
}

// dailySeries is n consecutive days from 2021-07-19 (a Monday).
func dailySeries(n int) []DayCounts {
	out := make([]DayCounts, n)
	for i := range out {
		out[i].Date = time.Date(2021, 7, 19+i, 0, 0, 0, 0, time.UTC).Format(time.DateOnly)
	}
	return out
}

func TestWeeklyRepresentatives(t *testing.T) {
	weekly := WeeklyRepresentatives(dailySeries(20))
	var dates []string
	for _, d := range weekly {
		dates = append(dates, d.Date)
	}
	if want := []string{"2021-07-19", "2021-07-26", "2021-08-02"}; !slices.Equal(dates, want) {
		t.Errorf("weekly = %v, want %v", dates, want)
	}
	if WeeklyRepresentatives(nil) != nil {
		t.Error("empty input must give nil")
	}
}

// TestWeeklyRepresentativesByDate: a representative is the first day
// present in its 7-day block, counted from the series' first date, so a
// removed or missing day shifts no later week. Four weeks with day 9
// removed, the benchmark dataset's shape, keep their Mondays (day 9 is
// a Wednesday); a week with no day at all has no representative.
func TestWeeklyRepresentativesByDate(t *testing.T) {
	dates := func(days []DayCounts) []string {
		var out []string
		for _, d := range days {
			out = append(out, d.Date)
		}
		return out
	}
	days := dailySeries(28)
	days = slices.Delete(days, 9, 10)
	if got, want := dates(WeeklyRepresentatives(days)), []string{"2021-07-19", "2021-07-26", "2021-08-02", "2021-08-09"}; !slices.Equal(got, want) {
		t.Errorf("day 9 removed: representatives %v, want %v", got, want)
	}
	// Week 2 loses its Monday: its Tuesday stands for it. Week 3 is gone.
	days = slices.Delete(days, 13, 20) // 2021-08-02 … 2021-08-08 (day 9 already out)
	days = slices.Insert(days, 13, DayCounts{Date: "2021-08-03"})
	if got, want := dates(WeeklyRepresentatives(days)), []string{"2021-07-19", "2021-07-26", "2021-08-03", "2021-08-09"}; !slices.Equal(got, want) {
		t.Errorf("week 2 without its Monday: representatives %v, want %v", got, want)
	}
	days = slices.Delete(dailySeries(28), 14, 21)
	if got, want := dates(WeeklyRepresentatives(days)), []string{"2021-07-19", "2021-07-26", "2021-08-09"}; !slices.Equal(got, want) {
		t.Errorf("week 2 missing: representatives %v, want %v", got, want)
	}
}

// TestWindow: a window is the series' first n calendar days, however
// many of them the series holds.
func TestWindow(t *testing.T) {
	days := slices.Delete(dailySeries(10), 3, 4)
	if got := Window(days, 7); len(got) != 6 || got[5].Date != "2021-07-25" {
		t.Errorf("7-day window over a series missing day 3: %d days ending %s, want 6 ending 2021-07-25", len(got), got[len(got)-1].Date)
	}
	if got := Window(days, 84); len(got) != len(days) {
		t.Errorf("a window longer than the series holds %d of its %d days", len(got), len(days))
	}
	if got := Window(nil, 7); len(got) != 0 {
		t.Errorf("empty series: window of %d days", len(got))
	}
}

// TestSeriesReadsAllocateNothingPerDay: over twelve weeks, the window
// allocates nothing and the weekly pick one slice.
func TestSeriesReadsAllocateNothingPerDay(t *testing.T) {
	days := dailySeries(84)
	if n := testing.AllocsPerRun(10, func() { Window(days, 84) }); n != 0 {
		t.Errorf("Window: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { WeeklyRepresentatives(days) }); n != 1 {
		t.Errorf("WeeklyRepresentatives: %.0f allocations, want 1", n)
	}
}

func TestEmptySnapshotAnalyses(t *testing.T) {
	s := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	ix := NewIndex(s, dictionary.ProfileByName("DE-CIX"))
	if m := ix.Mix(false); m.Total() != 0 || m.DefinedShare() != 0 {
		t.Error("empty mix wrong")
	}
	if u := ix.Usage(false); u.ASShare() != 0 || u.RouteShare() != 0 {
		t.Error("empty usage wrong")
	}
	if nm := ix.NonMemberTargeting(false, 5); nm.Share() != 0 || len(nm.Top) != 0 {
		t.Error("empty targeting wrong")
	}
	if c := ix.CulpritRanking(false, 5); len(c) != 0 {
		t.Error("empty culprits wrong")
	}
}

func TestTargetIntersections(t *testing.T) {
	s1, scheme := testSnapshot(t)
	// A second IXP snapshot sharing the target 15169 but not 16276.
	s2, _ := testSnapshot(t)
	s2.IXP = "OTHER"
	s2.Routes = s2.Routes[:1] // keep only r1: targets 15169 and 200

	ixps := []*Index{NewIndex(s1, scheme), NewIndex(s2, scheme)}
	pairs, common := TargetIntersections(ixps, false, 20)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Shared: 15169 (both) and 200 (r1 exists in both).
	if len(pairs[0].Shared) != 2 || pairs[0].Shared[0] != 200 || pairs[0].Shared[1] != 15169 {
		t.Errorf("shared = %v", pairs[0].Shared)
	}
	if len(common) != 2 {
		t.Errorf("common = %v", common)
	}
	// Empty input.
	p0, c0 := TargetIntersections(nil, false, 20)
	if len(p0) != 0 || len(c0) != 0 {
		t.Error("empty input mishandled")
	}
}

func TestFlavourActions(t *testing.T) {
	s, scheme := testSnapshot(t)
	wide, err := scheme.LargeDoNotAnnounce(263075)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := scheme.LargeInfo(0)
	s.Routes[0].LargeCommunities = []bgp.LargeCommunity{wide, info}
	s.Routes[0].ExtCommunities = []bgp.ExtendedCommunity{scheme.ExtInfo(1)}

	f := NewIndex(s, scheme).FlavourActions(false)
	if f.StandardAction != 7 || f.StandardInfo != 1 {
		t.Errorf("standard = %d/%d", f.StandardAction, f.StandardInfo)
	}
	if f.LargeAction != 1 || f.LargeInfo != 1 || f.LargeWideTargets != 1 {
		t.Errorf("large = %d/%d wide=%d", f.LargeAction, f.LargeInfo, f.LargeWideTargets)
	}
	if f.ExtendedAction != 0 || f.ExtendedInfo != 1 {
		t.Errorf("extended = %d/%d", f.ExtendedAction, f.ExtendedInfo)
	}
	if f.TotalAction() != 8 {
		t.Errorf("total = %d", f.TotalAction())
	}
}

func TestCompareVisibility(t *testing.T) {
	s, scheme := testSnapshot(t)
	ingress := s.Routes
	// "Exported" routes: scrubbed copies (no action communities).
	var exported []bgp.Route
	for _, r := range ingress {
		c := r.Clone()
		c.Communities = nil
		exported = append(exported, c)
	}
	v := CompareVisibility(ingress, exported, scheme)
	// 7 v4 + 1 v6 action instances (visibility spans both families).
	if v.LGActionInstances != 8 || v.CollectorActionInstances != 0 {
		t.Errorf("visibility = %+v", v)
	}
	if v.VisibilityGap() != 1.0 {
		t.Errorf("gap = %f", v.VisibilityGap())
	}
	empty := CompareVisibility(nil, nil, scheme)
	if empty.VisibilityGap() != 0 {
		t.Error("empty gap must be 0")
	}
}

func TestHygieneFilterImpact(t *testing.T) {
	s, scheme := testSnapshot(t)
	// v4 community counts per route: r1=3, r2=1, r3=2, r5=3.
	impacts := NewIndex(s, scheme).HygieneFilterImpact(false, []int{0, 1, 2, 5})
	if impacts[0].RoutesDropped != 4 || impacts[0].CommunitiesDropped != 9 {
		t.Errorf("threshold 0: %+v", impacts[0])
	}
	if impacts[1].RoutesDropped != 3 { // >1: r1, r3, r5
		t.Errorf("threshold 1: %+v", impacts[1])
	}
	if impacts[2].RoutesDropped != 2 { // >2: r1, r5
		t.Errorf("threshold 2: %+v", impacts[2])
	}
	if impacts[3].RoutesDropped != 0 {
		t.Errorf("threshold 5: %+v", impacts[3])
	}
	if impacts[2].DropShare() != 0.5 || impacts[0].LoadShare() != 1.0 {
		t.Errorf("shares: %f %f", impacts[2].DropShare(), impacts[0].LoadShare())
	}
}

func TestCommunityCountPercentiles(t *testing.T) {
	s, scheme := testSnapshot(t)
	pct := NewIndex(s, scheme).CommunityCountPercentiles(false, []float64{0, 50, 100})
	// Sorted counts: 1, 2, 3, 3.
	if pct[0] != 1 || pct[2] != 3 {
		t.Errorf("percentiles = %v", pct)
	}
	empty := &collector.Snapshot{}
	if got := NewIndex(empty, scheme).CommunityCountPercentiles(false, []float64{50}); got[0] != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
