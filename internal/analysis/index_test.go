package analysis

import (
	"sync"
	"testing"

	"ixplight/internal/asdb"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// genSnapshot builds a mid-size generated workload so the equivalence
// check also covers ext/large communities, prepends and both families
// at realistic diversity.
func genSnapshot(t testing.TB, ixp string) (*collector.Snapshot, *dictionary.Scheme) {
	t.Helper()
	p := ixpgen.ProfileByName(ixp)
	if p == nil {
		t.Fatalf("unknown profile %q", ixp)
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.01})
	if err != nil {
		t.Fatalf("generate %s: %v", ixp, err)
	}
	return w.Snapshot("2021-10-04"), p.Scheme
}

// TestIndexMatchesDirect holds the []bgp.Route source of the fold to
// the oracle.
func TestIndexMatchesDirect(t *testing.T) {
	s, scheme := testSnapshot(t)
	checkIndexMatchesDirect(t, "testSnapshot", NewIndex(s, scheme), s, scheme)

	for _, ixp := range []string{"DE-CIX", "AMS-IX"} {
		gs, gscheme := genSnapshot(t, ixp)
		checkIndexMatchesDirect(t, ixp, NewIndex(gs, gscheme), gs, gscheme)
	}

	es, escheme := edgeSnapshot(t)
	checkIndexMatchesDirect(t, "edge", NewIndex(es, escheme), es, escheme)

	// Empty snapshot: accessors must keep the oracle's nil/empty
	// semantics exactly.
	empty := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	scheme = dictionary.ProfileByName("DE-CIX")
	checkIndexMatchesDirect(t, "empty", NewIndex(empty, scheme), empty, scheme)
}

// TestIndexConcurrentUse pins the concurrency contract: one Index off
// a header-only snapshot, shared by many goroutines, every accessor and
// the series reads exercised — run under -race by `make check`.
func TestIndexConcurrentUse(t *testing.T) {
	s, scheme := genSnapshot(t, "LINX")
	ix := columnIndex(t, s, scheme)
	reg := asdb.Default()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v6 := g%2 == 1
			for iter := 0; iter < 4; iter++ {
				_ = ix.Usage(v6)
				_ = ix.Mix(v6)
				_, _ = ix.ActionInfoSplit(v6)
				_ = ix.ActionShare(v6)
				_ = ix.FlavourActions(v6)
				_ = ix.PerASActionCounts(v6)
				_ = ix.RouteCommCorrelation(v6)
				_ = ix.ASesPerActionType(v6)
				_ = ix.OccurrencesPerType(v6)
				_ = ix.TopActionCommunities(v6, 10)
				_ = ix.NonMemberTargeting(v6, 10)
				_ = ix.CulpritRanking(v6, 10)
				_ = ix.CategoryBreakdown(reg, v6)
				_ = ix.HygieneFilterImpact(v6, []int{1, 5, 15})
				_ = ix.CommunityCountPercentiles(v6, []float64{50, 99})
				_ = ix.Counts(v6)
				_ = ix.Class(0)
				_ = ix.IsMember(uint32(iter))
				_ = ix.ASActivity(uint32(iter), v6)
				_ = ix.CommunityUsage(0, v6)
				_ = Stability([]DayCounts{ix.DayCounts(), CountDay(s)}, v6)
			}
		}(g)
	}
	wg.Wait()
}
