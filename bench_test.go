package ixplight

// Diagnostic benchmarks, run by hand: the design alternatives DESIGN.md
// §5 calls out (BenchmarkAblation_*), the MRT archive round trip and
// the §3 dictionary construction — measurements nothing else in the
// tree takes. What the experiments cost is not
// measured here: the `analyze` workload of benchmarks/e2e runs every
// experiment, checks its output and reports report.expall_ms
// (report.exp.visibility_ms + report.exp_rest_ms), and
//
//	go run ./cmd/analyze -exp fig5 -trace trace.jsonl
//
// regenerates one artifact with paper-shaped output and its span.
//
//	go test -run '^$' -bench . -benchmem

import (
	"bytes"
	"sync"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/mrt"
	"ixplight/internal/report"
	"ixplight/internal/rs"
	"ixplight/internal/rsconfig"
	"ixplight/internal/webdocs"
)

const (
	benchSeed  = 42
	benchScale = 0.02
)

var (
	benchOnce sync.Once
	benchLab  *report.Lab
)

// lab lazily generates the shared four-IXP workload.
func lab(b *testing.B) *report.Lab {
	b.Helper()
	benchOnce.Do(func() {
		l, err := report.NewLab(ixpgen.BigFour(), benchSeed, benchScale)
		if err != nil {
			panic(err)
		}
		benchLab = l
	})
	return benchLab
}

func benchSnapshot(b *testing.B, ixp string) *collector.Snapshot {
	return lab(b).Snapshots[ixp]
}

// ablationServer builds a populated route server for the export
// ablation.
func ablationServer(b *testing.B) (*rs.Server, []rs.Peer) {
	b.Helper()
	p := ixpgen.ProfileByName("LINX")
	server, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
	if err != nil {
		b.Fatal(err)
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: benchSeed, Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		b.Fatal(err)
	}
	return server, server.Peers()
}

// BenchmarkAblation_ExportPrecomputed measures the materialised
// per-peer export: ExportTo deep-copies every route the walk shows it
// and sorts the copies by prefix, then announcing peer.
func BenchmarkAblation_ExportPrecomputed(b *testing.B) {
	server, peers := ablationServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = server.ExportTo(peers[i%len(peers)].ASN)
	}
}

// BenchmarkAblation_ExportWalk is the same export read in place:
// VisitExported hands every exported route to a counter through the
// walk's scratch. The difference to ExportPrecomputed is what
// materialising a view costs; the export decision is the same code.
func BenchmarkAblation_ExportWalk(b *testing.B) {
	server, peers := ablationServer(b)
	communities := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server.VisitExported(peers[i%len(peers)].ASN, func(r *bgp.Route) { communities += r.CommunityCount() })
	}
}

// BenchmarkAblation_CommunitySetSlice vs ...Map compare membership
// testing on realistic (short) per-route community lists.
func BenchmarkAblation_CommunitySetSlice(b *testing.B) {
	s := benchSnapshot(b, "DE-CIX")
	routes := s.Routes
	needle := bgp.BlackholeWellKnown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routes[i%len(routes)]
		_ = bgp.HasCommunity(r.Communities, needle)
	}
}

// BenchmarkAblation_CommunitySetMap builds a map per route, the
// alternative HasCommunity avoids.
func BenchmarkAblation_CommunitySetMap(b *testing.B) {
	s := benchSnapshot(b, "DE-CIX")
	routes := s.Routes
	needle := bgp.BlackholeWellKnown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routes[i%len(routes)]
		set := make(map[bgp.Community]bool, len(r.Communities))
		for _, c := range r.Communities {
			set[c] = true
		}
		_ = set[needle]
	}
}

// BenchmarkMRTWriteRead measures dumping and re-parsing a snapshot as
// a RouteViews-style archive.
func BenchmarkMRTWriteRead(b *testing.B) {
	s := benchSnapshot(b, "AMS-IX")
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := mrt.WriteRIB(&buf, s); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := mrt.ReadRIB(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkDictionaryFromArtifacts measures the full §3 dictionary
// construction from the two textual artifacts.
func BenchmarkDictionaryFromArtifacts(b *testing.B) {
	scheme := dictionary.ProfileByName("DE-CIX")
	cfgText := rsconfig.Render(scheme, rsconfig.Options{})
	page := webdocs.Render(scheme)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defs, err := rsconfig.Parse(cfgText)
		if err != nil {
			b.Fatal(err)
		}
		docs, err := webdocs.Parse(page)
		if err != nil {
			b.Fatal(err)
		}
		union := dictionary.UnionEntries(
			rsconfig.Entries(scheme.IXP, defs),
			webdocs.Entries(scheme, docs),
		)
		size = dictionary.FromEntries(scheme.IXP, union).Size()
	}
	b.ReportMetric(float64(size), "entries")
}
