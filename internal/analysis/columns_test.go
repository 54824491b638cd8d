package analysis

import (
	"bytes"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// binBytes encodes s with the columnar binary codec.
func binBytes(tb testing.TB, s *collector.Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := collector.WriteSnapshot(&buf, s, collector.CodecBinary); err != nil {
		tb.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// columnIndex round-trips s through the binary codec and builds the
// index column-direct.
func columnIndex(tb testing.TB, s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	tb.Helper()
	sr, err := collector.NewSnapshotReaderBytes(binBytes(tb, s))
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	ix, err := IndexFromReader(sr, scheme)
	if err != nil {
		tb.Fatalf("IndexFromReader: %v", err)
	}
	return ix
}

// edgeSnapshot builds a partial snapshot covering the codec's
// nil-vs-empty distinction on every community flavour, plus
// MemberErrors and a degraded member list.
func edgeSnapshot(t testing.TB) (*collector.Snapshot, *dictionary.Scheme) {
	t.Helper()
	gs, scheme := genSnapshot(t, "DE-CIX")
	n := 12
	if len(gs.Routes) < n {
		t.Fatalf("generated snapshot too small: %d routes", len(gs.Routes))
	}
	routes := make([]bgp.Route, n)
	copy(routes, gs.Routes[:n])
	routes[0].Communities = nil
	routes[1].Communities = []bgp.Community{}
	routes[2].ExtCommunities = nil
	routes[2].LargeCommunities = nil
	routes[3].ExtCommunities = []bgp.ExtendedCommunity{}
	routes[3].LargeCommunities = []bgp.LargeCommunity{}
	routes[4].Communities = nil
	routes[4].ExtCommunities = nil
	routes[4].LargeCommunities = nil
	s := &collector.Snapshot{
		IXP:     gs.IXP,
		Date:    gs.Date,
		Members: gs.Members,
		Routes:  routes,
		Partial: true,
		MemberErrors: []collector.MemberError{
			{ASN: 64999, Stage: collector.StageRoutes, Err: "timeout", Attempts: 3},
		},
	}
	s.Normalize()
	return s, scheme
}

// TestIndexFromReaderMatchesNewIndex holds the RouteBlock source of
// the fold to the oracle, on the cases the []bgp.Route source is held
// to in TestIndexMatchesDirect.
func TestIndexFromReaderMatchesNewIndex(t *testing.T) {
	s, scheme := testSnapshot(t)
	checkIndexMatchesDirect(t, "testSnapshot", columnIndex(t, s, scheme), s, scheme)

	for _, ixp := range []string{"DE-CIX", "AMS-IX"} {
		gs, gscheme := genSnapshot(t, ixp)
		checkIndexMatchesDirect(t, ixp, columnIndex(t, gs, gscheme), gs, gscheme)
	}

	es, escheme := edgeSnapshot(t)
	checkIndexMatchesDirect(t, "edge", columnIndex(t, es, escheme), es, escheme)

	empty := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	empty.Normalize()
	scheme = dictionary.ProfileByName("DE-CIX")
	checkIndexMatchesDirect(t, "empty", columnIndex(t, empty, scheme), empty, scheme)
}

// TestIndexFromColumnsAllocs pins what a full build off columns
// allocates: the tables, refcount arrays and aggregate maps, sized from
// the input or grown by doubling — nothing per route, per community
// instance or per distinct community. The build measured 471 for the
// DE-CIX snapshot's 10,191 routes, so one allocation per route coming
// back fails the ceiling many times over.
func TestIndexFromColumnsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	s, scheme := genSnapshot(t, "DE-CIX")
	data := binBytes(t, s)

	allocs := testing.AllocsPerRun(10, func() {
		sr, err := collector.NewSnapshotReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := IndexFromReader(sr, scheme); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("routes=%d build=%.0f allocs/op", len(s.Routes), allocs)
	const ceiling = 576
	if allocs > ceiling {
		t.Errorf("column build: %.0f allocs/op for %d routes, ceiling %d", allocs, len(s.Routes), ceiling)
	}
}

// FuzzIndexFromColumns feeds arbitrary bytes through the open →
// column-build path: whatever decodes must index exactly as the
// oracle reads the materialized snapshot, and whatever doesn't must
// fail cleanly.
func FuzzIndexFromColumns(f *testing.F) {
	seed, scheme := func() (*collector.Snapshot, *dictionary.Scheme) {
		s := &collector.Snapshot{
			IXP:  "DE-CIX",
			Date: "2021-10-04",
			Members: []collector.Member{
				{ASN: 100, IPv4: true, IPv6: true},
				{ASN: 6939, IPv4: true},
			},
			Routes: []bgp.Route{
				{ASPath: bgp.ASPath{100}, Communities: []bgp.Community{bgp.MustParseCommunity("0:15169")}},
			},
		}
		s.Normalize()
		return s, dictionary.ProfileByName("DE-CIX")
	}()
	f.Add(binBytes(f, seed))
	es, _ := edgeSnapshot(f)
	f.Add(binBytes(f, es))
	f.Add([]byte("IXPB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := collector.NewSnapshotReaderBytes(data)
		if err != nil {
			return
		}
		ix, err := IndexFromReader(sr, scheme)
		if err != nil {
			return
		}
		// The column build does not consume the reader (and the
		// non-binary fallback caches its materialization), so the same
		// bytes must also materialize.
		full, err := sr.Snapshot()
		if err != nil {
			t.Fatalf("columns decoded but Snapshot failed: %v", err)
		}
		checkIndexMatchesDirect(t, "fuzz", ix, full, scheme)
	})
}

// benchWorkload is the AMS-IX benchmark snapshot in binary form.
func benchWorkload(b *testing.B) ([]byte, *dictionary.Scheme, int) {
	b.Helper()
	p := ixpgen.ProfileByName("AMS-IX")
	if p == nil {
		b.Fatal("unknown profile AMS-IX")
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	s := w.Snapshot("2021-10-04")
	return binBytes(b, s), p.Scheme, len(s.Routes)
}

// BenchmarkIndexFromColumns measures a full build off columns: open
// the encoded snapshot, register the intern tables, fold the rows.
// Compare against BenchmarkIndexDecodeThenNew, the same fold over
// materialized routes.
func BenchmarkIndexFromColumns(b *testing.B) {
	data, scheme, routes := benchWorkload(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := collector.NewSnapshotReaderBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := IndexFromReader(sr, scheme); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(routes), "routes")
}

// BenchmarkIndexDecodeThenNew materializes []bgp.Route first, then
// folds route by route.
func BenchmarkIndexDecodeThenNew(b *testing.B) {
	data, scheme, routes := benchWorkload(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := collector.NewSnapshotReaderBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sr.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		NewIndex(s, scheme)
	}
	b.ReportMetric(float64(routes), "routes")
}
