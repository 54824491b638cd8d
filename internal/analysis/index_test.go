package analysis

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestWrapperDispatch pins how the package-level functions find their
// answer. The scheme-taking ones go through IndexFor — a cached build
// for a materialized snapshot — and the scheme-less ones select on
// the input: a snapshot with routes is walked (no index is built for
// them, there is no scheme to build one with), a header-only snapshot
// answers from its attached index.
func TestWrapperDispatch(t *testing.T) {
	s, scheme := genSnapshot(t, "LINX")
	setTelemetryForTest(t)
	m := tel()

	misses0 := m.cacheMisses.Value()
	for _, v6 := range []bool{false, true} {
		if got, want := ComputeUsage(s, scheme, v6), ComputeUsageDirect(s, scheme, v6); !reflect.DeepEqual(got, want) {
			t.Errorf("ComputeUsage(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got, want := TopActionCommunities(s, scheme, v6, 5), TopActionCommunitiesDirect(s, scheme, v6, 5); !reflect.DeepEqual(got, want) {
			t.Errorf("TopActionCommunities(v6=%v) %+v != direct %+v", v6, got, want)
		}
	}
	if got := m.cacheMisses.Value() - misses0; got != 1 {
		t.Errorf("four scheme-taking calls built %d indexes, want 1", got)
	}
	ix := IndexFor(s, scheme)
	if again := IndexFor(s, scheme); again != ix {
		t.Error("IndexFor must return the cached index")
	}

	builds0 := m.buildSeconds.Count()
	for _, v6 := range []bool{false, true} {
		if got, want := CountSnapshot(s, v6), CountSnapshotDirect(s, v6); !reflect.DeepEqual(got, want) {
			t.Errorf("CountSnapshot(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got, want := HygieneFilterImpact(s, v6, []int{0, 5, 20}), HygieneFilterImpactDirect(s, v6, []int{0, 5, 20}); !reflect.DeepEqual(got, want) {
			t.Errorf("HygieneFilterImpact(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got, want := CommunityCountPercentiles(s, v6, []float64{50, 99}), CommunityCountPercentilesDirect(s, v6, []float64{50, 99}); !reflect.DeepEqual(got, want) {
			t.Errorf("CommunityCountPercentiles(v6=%v) %+v != direct %+v", v6, got, want)
		}
	}
	if got := m.buildSeconds.Count() - builds0; got != 0 {
		t.Errorf("scheme-less calls on a materialized snapshot built %d indexes, want 0", got)
	}

	// The same three on a header-only snapshot: only the attached
	// index can answer.
	col := columnIndex(t, s, scheme)
	head := col.Snapshot()
	AttachIndex(head, col)
	for _, v6 := range []bool{false, true} {
		if got, want := CountSnapshot(head, v6), CountSnapshotDirect(s, v6); !reflect.DeepEqual(got, want) {
			t.Errorf("attached CountSnapshot(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got, want := HygieneFilterImpact(head, v6, []int{0, 5, 20}), HygieneFilterImpactDirect(s, v6, []int{0, 5, 20}); !reflect.DeepEqual(got, want) {
			t.Errorf("attached HygieneFilterImpact(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got, want := CommunityCountPercentiles(head, v6, []float64{50, 99}), CommunityCountPercentilesDirect(s, v6, []float64{50, 99}); !reflect.DeepEqual(got, want) {
			t.Errorf("attached CommunityCountPercentiles(v6=%v) %+v != direct %+v", v6, got, want)
		}
	}
}

// TestIndexConcurrentUse pins the concurrency contract: one Index
// shared by many goroutines, every accessor exercised, plus concurrent
// cache hits through IndexFor — run under -race by `make check`.
func TestIndexConcurrentUse(t *testing.T) {
	s, scheme := genSnapshot(t, "LINX")
	ix := NewIndex(s, scheme)
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
				_ = ix.FlavourActions(v6)
				_ = ix.PerASActionCounts(v6)
				_ = ix.RouteCommCorrelation(v6)
				_ = ix.ASesPerActionType(v6)
				_ = ix.OccurrencesPerType(v6)
				_ = ix.TopActionCommunities(v6, 10)
				_ = ix.NonMemberTargeting(v6, 10)
				_ = ix.CulpritRanking(v6, 10)
				_ = ix.TopTargets(v6, 10)
				_ = ix.CategoryBreakdown(reg, v6)
				_ = ix.HygieneFilterImpact(v6, []int{1, 5, 15})
				_ = ix.CommunityCountPercentiles(v6, []float64{50, 99})
				_ = ix.Counts(v6)
				_ = ix.Class(0)
			}
			// Concurrent cache traffic: hits and singleflight builds
			// must be race-clean.
			_ = IndexFor(s, scheme)
			_ = CountSnapshot(s, v6)
		}(g)
	}
	wg.Wait()
}

// TestIndexCacheEviction keeps the cache bounded — filling it past
// indexCacheCap evicts the oldest entry — and pins that an evicted
// snapshot is released at once: when its entry goes, nothing in the
// cache may keep the snapshot (with all its routes) reachable. Several
// victims at different distances, because a stale key can sit in a
// slice's backing array through some evictions and not through others.
func TestIndexCacheEviction(t *testing.T) {
	setTelemetryForTest(t)
	m := tel()
	scheme := dictionary.ProfileByName("DE-CIX")
	fill := func(n int) {
		for i := 0; i < n; i++ {
			_ = IndexFor(&collector.Snapshot{IXP: "DE-CIX", Date: "filler"}, scheme)
		}
	}

	fill(indexCacheCap) // whatever earlier tests left, the cache is full now
	first := &collector.Snapshot{IXP: "DE-CIX", Date: "d0"}
	firstIx := IndexFor(first, scheme)
	evictions0 := m.evictions.Value()
	fill(indexCacheCap)
	if got := m.evictions.Value() - evictions0; got != indexCacheCap {
		t.Errorf("evictions = %d after %d inserts into a full cache, want as many", got, indexCacheCap)
	}
	if got := m.cacheEntries.Value(); got != indexCacheCap {
		t.Errorf("cache entries = %d, want %d", got, indexCacheCap)
	}
	if again := IndexFor(first, scheme); again == firstIx {
		t.Error("oldest entry must be evicted once the cache is full")
	}

	var collected atomic.Int64
	insertVictim := func() {
		s := &collector.Snapshot{IXP: "DE-CIX", Date: "victim"}
		runtime.SetFinalizer(s, func(*collector.Snapshot) { collected.Add(1) })
		_ = IndexFor(s, scheme)
	}
	for victim := 1; victim <= 8; victim++ {
		fill(victim) // shift where in the eviction order this victim falls
		insertVictim()
		fill(indexCacheCap) // the last of these evicts the victim
		for i := 0; i < 20 && collected.Load() < int64(victim); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if got := collected.Load(); got != int64(victim) {
			t.Fatalf("victim %d is still reachable after its eviction (%d collected)", victim, got)
		}
	}
}
