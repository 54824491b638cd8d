package rs_test

// The export ablation of DESIGN.md §5, run by hand:
//
//	go test -run '^$' -bench Ablation -benchmem ./internal/rs

import (
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/ixpgen"
	"ixplight/internal/rs"
)

// ablationServer builds a populated route server for the export
// ablation.
func ablationServer(b *testing.B) (*rs.Server, []rs.Peer) {
	b.Helper()
	p := ixpgen.ProfileByName("LINX")
	server, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
	if err != nil {
		b.Fatal(err)
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.01})
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
