package analysis

import (
	"cmp"
	"slices"

	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// The classified snapshot index.
//
// Every §5 analysis slices the same underlying classification: each
// community on each accepted route, mapped through the IXP dictionary.
// An Index performs that classification exactly once — the fold in
// advance.go, which classifies every *distinct* community value once —
// and aggregates, per address family, everything the analyses consume:
// the Fig. 1/2 mix, the Fig. 3 action/info split, Fig. 4's usage and
// per-AS counts, the Table 2 / §5.3 per-type tallies, the Fig. 5–7 /
// §5.5 rankings and the §5.6 per-route community-count distribution.
// The index is the only way in: every analysis that classifies is a
// method on it.

// numActionTypes sizes the per-ActionType arrays (Informational
// through Blackhole).
const numActionTypes = int(dictionary.Blackhole) + 1

// Index is the per-(snapshot, scheme) classified view.
//
// A chained day (IndexSeriesFromReader, Advance) starts counts-only:
// Snapshot, Class, Counts and DayCounts answer, and every other accessor panics
// naming Materialize, which the chain's owner calls once for a day that
// is to be served. NewIndex and IndexFromReader return materialized
// indexes.
//
// Concurrency contract: an Index is immutable once its builder is done
// with it — after construction, or after Materialize for a day that is
// served. The owner's Advance writes the chain state and the per-AS
// maps a counts-only owner hands on (which no accessor it answers
// reads), never what an existing day answers. Every accessor is
// read-only and safe to call from any number of goroutines without
// external locking; accessors that expose aggregate maps return fresh
// copies. TestIndexConcurrentUse and TestEarlierDayReadableDuringAdvance
// pin the contract under -race.
type Index struct {
	snap   *collector.Snapshot
	scheme *dictionary.Scheme
	// members is the day's member set, built by Materialize.
	members map[uint32]bool

	// fam[0] aggregates IPv4, fam[1] IPv6.
	fam [2]familyStats

	// series is the chain state of a series-built index
	// (IndexSeriesFromReader / Advance); nil for every other build.
	// Only the chain's newest index — the state's owner — may Advance
	// or Materialize.
	series *seriesState
	// countsOnly: the ranking maps, histogram and member set are not
	// built, so only Counts answers from the aggregates.
	countsOnly bool
}

// Snapshot returns the snapshot this index classifies. For an index
// built off columns or a delta it is header-only: Routes is nil,
// everything else matches the encoded snapshot.
func (ix *Index) Snapshot() *collector.Snapshot { return ix.snap }

// familyStats holds one address family's aggregates.
type familyStats struct {
	// commHist is the §5.6 distribution of each route's total community
	// count (all flavours) as a histogram, count → routes: a positional
	// slice cannot be patched under adds and removals at arbitrary
	// route positions, and both §5.6 consumers are order-independent.
	commHist      map[int]int
	commInstances int
	// prefixes is the family's distinct-prefix count (Appendix A).
	prefixes int

	mix     Mix
	flavour FlavourActions
	usage   Usage

	perASActions map[uint32]int
	perASRoutes  map[uint32]int
	actionComms  map[bgp.Community]int

	typeASes [numActionTypes]int
	occ      [numActionTypes]int

	targets            map[uint32]int
	nonMemberInstances int
	nonMemberComms     map[bgp.Community]int
	culprits           map[uint32]int
}

// IndexFor is NewIndex. It stays for benchmarks/e2e/analyze.go; code
// that holds a snapshot holds the index its builder made, or says
// NewIndex where it pays for one.
func IndexFor(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	return NewIndex(s, scheme)
}

// --- accessors ----------------------------------------------------------

// classified guards every accessor but Snapshot, Class, Counts and
// DayCounts.
func (ix *Index) classified() {
	if ix.countsOnly {
		panic("analysis: classified accessor on a counts-only day (" + ix.snap.IXP + " " + ix.snap.Date + "); call Materialize while it is the chain's newest day")
	}
}

// family returns one family's aggregates for a classified accessor.
func (ix *Index) family(v6 bool) *familyStats {
	ix.classified()
	return ix.counts(v6)
}

// counts returns one family's aggregates for Counts, which every day
// answers.
func (ix *Index) counts(v6 bool) *familyStats {
	if v6 {
		return &ix.fam[1]
	}
	return &ix.fam[0]
}

// Class returns the classification of a standard community under the
// index's scheme, whether or not the value occurs in the snapshot.
// Scheme.Classify is a branch-only switch, so nothing is memoized.
func (ix *Index) Class(c bgp.Community) dictionary.Class {
	return ix.scheme.Classify(c)
}

// Usage returns the Fig. 4a aggregate for one family.
func (ix *Index) Usage(v6 bool) Usage { return ix.family(v6).usage }

// Mix returns the Fig. 1/2 instance mix for one family.
func (ix *Index) Mix(v6 bool) Mix { return ix.family(v6).mix }

// ActionInfoSplit returns the Fig. 3 split for one family: action vs
// informational instances among the IXP-defined standard communities.
func (ix *Index) ActionInfoSplit(v6 bool) (action, info int) {
	f := ix.family(v6).flavour
	return f.StandardAction, f.StandardInfo
}

// ActionShare is Fig. 3's action fraction.
func (ix *Index) ActionShare(v6 bool) float64 {
	a, i := ix.ActionInfoSplit(v6)
	return ratio(a, a+i)
}

// IsMember reports whether asn has a session at the route server in
// the indexed snapshot.
func (ix *Index) IsMember(asn uint32) bool {
	ix.classified()
	return ix.members[asn]
}

// FlavourActions returns the per-flavour action/info tallies.
func (ix *Index) FlavourActions(v6 bool) FlavourActions { return ix.family(v6).flavour }

// PerASActionCounts returns a copy of each announcing AS's action
// instance count (Fig. 4b/7 raw series).
func (ix *Index) PerASActionCounts(v6 bool) map[uint32]int {
	st := ix.family(v6)
	out := make(map[uint32]int, len(st.perASActions))
	for asn, n := range st.perASActions {
		out[asn] = n
	}
	return out
}

// RouteCommCorrelation returns the Fig. 4c scatter for one family.
// Only ASes announcing at least one route appear.
func (ix *Index) RouteCommCorrelation(v6 bool) []CorrelationPoint {
	st := ix.family(v6)
	totalComms := 0
	for _, v := range st.perASActions {
		totalComms += v
	}
	out := make([]CorrelationPoint, 0, len(st.perASRoutes))
	for asn, rc := range st.perASRoutes {
		out = append(out, CorrelationPoint{
			ASN:       asn,
			RouteFrac: ratio(rc, st.usage.RoutesTotal),
			CommFrac:  ratio(st.perASActions[asn], totalComms),
		})
	}
	slices.SortFunc(out, func(a, b CorrelationPoint) int { return cmp.Compare(a.ASN, b.ASN) })
	return out
}

// ASesPerActionType returns Table 2 for one family: for each of the
// four action groups, the number (and fraction) of RS members tagging
// at least one route with a community of that group.
func (ix *Index) ASesPerActionType(v6 bool) []TypeUsage {
	st := ix.family(v6)
	out := make([]TypeUsage, 0, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		out = append(out, TypeUsage{
			Type:  t,
			ASes:  st.typeASes[t],
			Share: ratio(st.typeASes[t], st.usage.MembersAtRS),
		})
	}
	return out
}

// OccurrencesPerType returns the §5.3 per-type instance counts. Types
// with zero occurrences are absent.
func (ix *Index) OccurrencesPerType(v6 bool) map[dictionary.ActionType]int {
	st := ix.family(v6)
	out := make(map[dictionary.ActionType]int, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		if st.occ[t] > 0 {
			out[t] = st.occ[t]
		}
	}
	return out
}

// TopActionCommunities returns the Fig. 5 ranking for one family:
// action community values by occurrence, ties broken by value.
func (ix *Index) TopActionCommunities(v6 bool, k int) []CommunityCount {
	return rankCommunities(ix.family(v6).actionComms, ix.Class, k)
}

// NonMemberTargeting returns the §5.5 aggregate for one family. Only
// communities with a specific AS target can be ineffective this way;
// to-all and blackhole actions always have effect.
func (ix *Index) NonMemberTargeting(v6 bool, k int) NonMemberTargeting {
	nm := ix.NonMemberShare(v6)
	nm.Top = rankCommunities(ix.family(v6).nonMemberComms, ix.Class, k)
	return nm
}

// NonMemberShare is NonMemberTargeting without the Fig. 6 ranking: the
// instance/total pair alone, two reads that rank and classify nothing.
func (ix *Index) NonMemberShare(v6 bool) NonMemberTargeting {
	st := ix.family(v6)
	return NonMemberTargeting{Instances: st.nonMemberInstances, Total: st.flavour.StandardAction}
}

// CulpritRanking returns the Fig. 7 ranking for one family.
func (ix *Index) CulpritRanking(v6 bool, k int) []Culprit {
	return rankCulprits(ix.family(v6).culprits, k)
}

// TopTargets ranks the ASes most targeted by action communities.
func (ix *Index) TopTargets(v6 bool, k int) []TargetedAS {
	top := topK(ix.family(v6).targets, k)
	out := make([]TargetedAS, len(top))
	for i, e := range top {
		out[i] = TargetedAS{ASN: e.key, IsMember: ix.members[e.key], Count: e.n}
	}
	return out
}

// CategoryBreakdown returns the §5.4 target-category aggregation.
// Aggregating the per-target counts first and mapping each distinct
// ASN through the registry once gives the same totals as a
// per-instance walk.
func (ix *Index) CategoryBreakdown(reg *asdb.Registry, v6 bool) CategoryBreakdown {
	st := ix.family(v6)
	all := make(map[asdb.Category]int)
	nonMembers := make(map[asdb.Category]int)
	allTotal, nmTotal := 0, 0
	for asn, n := range st.targets {
		cat := reg.CategoryOf(asn)
		all[cat] += n
		allTotal += n
		if !ix.members[asn] {
			nonMembers[cat] += n
			nmTotal += n
		}
	}
	return CategoryBreakdown{
		All:        categoryShares(all, allTotal),
		NonMembers: categoryShares(nonMembers, nmTotal),
	}
}

// HygieneFilterImpact evaluates the §5.6 filter at each threshold.
func (ix *Index) HygieneFilterImpact(v6 bool, thresholds []int) []HygieneImpact {
	return hygieneImpacts(ix.family(v6).commHist, thresholds)
}

// CommunityCountPercentiles summarises the per-route community count
// distribution at the given percentiles (0–100) — the evidence for
// picking a §5.6 threshold.
func (ix *Index) CommunityCountPercentiles(v6 bool, percentiles []float64) []int {
	hist := ix.family(v6).commHist
	out := make([]int, len(percentiles))
	if len(hist) == 0 {
		return out
	}
	// The sorted distribution is never expanded to one entry per route:
	// position idx of it lies in the first count whose cumulative route
	// total passes idx.
	counts := make([]int, 0, len(hist))
	routes := 0
	for c, n := range hist {
		counts = append(counts, c)
		routes += n
	}
	slices.Sort(counts)
	for i, p := range percentiles {
		idx := min(max(int(p/100*float64(routes-1)), 0), routes-1)
		cum := 0
		for _, c := range counts {
			if cum += hist[c]; cum > idx {
				out[i] = c
				break
			}
		}
	}
	return out
}

// Counts returns the Appendix A row for one family. Every day answers
// it, counts-only or not.
func (ix *Index) Counts(v6 bool) SnapshotCounts {
	st := ix.counts(v6)
	return SnapshotCounts{
		Members:     st.usage.MembersAtRS,
		Prefixes:    st.prefixes,
		Routes:      st.usage.RoutesTotal,
		Communities: st.commInstances,
	}
}

// DayCounts returns the day's series counts, what CountDay counts off
// the routes. Every day answers it, counts-only or not.
func (ix *Index) DayCounts() DayCounts {
	return DayCounts{Date: ix.snap.Date, Members: len(ix.snap.Members), V4: ix.Counts(false), V6: ix.Counts(true)}
}
