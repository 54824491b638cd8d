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

// TestAttachIndexDispatch pins the one lookup: Attached returns the
// index hung on a header-only snapshot — which has no routes to build
// from or walk — and nil for any other snapshot, and the two
// attached-or-walk reads (CountSnapshot, Stability) answer a
// header-only day from its index and a materialized day from a walk,
// building nothing either way.
func TestAttachIndexDispatch(t *testing.T) {
	s, scheme := genSnapshot(t, "LINX")
	ix := columnIndex(t, s, scheme)
	head := ix.Snapshot()
	if head.Routes != nil {
		t.Fatal("column index snapshot must be header-only")
	}
	if Attached(head) != nil || Attached(s) != nil {
		t.Fatal("Attached on a snapshot nothing was attached to must be nil")
	}
	AttachIndex(head, ix)
	if Attached(head) != ix || IndexFor(head, scheme) != ix {
		t.Fatal("Attached and IndexFor must return the attached index")
	}
	if fresh := IndexFor(s, scheme); fresh == nil || fresh == ix || fresh.Snapshot() != s {
		t.Fatal("IndexFor on a snapshot with no attached index must build one from its routes")
	}

	setTelemetryForTest(t)
	builds0 := tel().buildSeconds.Count()
	for _, v6 := range []bool{false, true} {
		want := CountSnapshotDirect(s, v6)
		if got := CountSnapshot(head, v6); got != want {
			t.Errorf("attached CountSnapshot(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got := CountSnapshot(s, v6); got != want {
			t.Errorf("walked CountSnapshot(v6=%v) %+v != direct %+v", v6, got, want)
		}
		same := func(n int) StabilityRow { return StabilityRow{Min: n, Max: n} }
		wantTable := StabilityTable{Members: same(want.Members), Prefixes: same(want.Prefixes),
			Routes: same(want.Routes), Communities: same(want.Communities)}
		if got := Stability([]*collector.Snapshot{head, s}, v6); got != wantTable {
			t.Errorf("Stability(v6=%v) over an attached and a walked day %+v, want %+v", v6, got, wantTable)
		}
	}
	if got := tel().buildSeconds.Count() - builds0; got != 0 {
		t.Errorf("the attached-or-walk reads built %d indexes, want 0", got)
	}
}

// TestIndexFromColumnsAllocs pins what a full build off columns
// allocates: one prefix refcount key per route — the chain state counts
// prefixes under edits at arbitrary positions, so it keys them, and a
// map assignment converts its key — and beyond those only the tables
// and aggregate maps, sized from the input. Nothing per community
// instance or per distinct community.
func TestIndexFromColumnsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	s, scheme := genSnapshot(t, "DE-CIX")
	data := binBytes(t, s)
	routes := len(s.Routes)

	allocs := testing.AllocsPerRun(10, func() {
		sr, err := collector.NewSnapshotReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := IndexFromReader(sr, scheme); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("routes=%d build=%.0f allocs/op", routes, allocs)
	if rest := allocs - float64(routes); rest > 768 {
		t.Errorf("column build: %.0f allocs/op beyond one key per route (%d), ceiling 768", rest, routes)
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
