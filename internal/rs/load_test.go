package rs_test

import (
	"reflect"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/ixpgen"
	"ixplight/internal/rs"
)

// announceEach fills server with w as one AddPeer per member and one
// Announce per route would: the generated routes, then the invalid ones.
func announceEach(t *testing.T, server *rs.Server, w *ixpgen.Workload) {
	t.Helper()
	for _, m := range w.Members {
		if err := server.AddPeer(rs.Peer{ASN: m.ASN, Name: m.Name, IPv4: m.IPv4, IPv6: m.IPv6}); err != nil {
			t.Fatal(err)
		}
	}
	for _, table := range [][]bgp.Route{w.Routes, w.Invalid} {
		for _, r := range table {
			if _, err := server.Announce(r.PeerAS(), r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// serverView is everything a server exposes of its tables: per peer
// the full listing with its total and version and both counts, the
// export to a collector peering like a member, and Stats.
type serverView struct {
	Peers    []rs.Peer
	Listings map[uint32][]bgp.Route
	Totals   map[uint32][3]uint64 // total, version, filtered
	Export   []bgp.Route
	Stats    rs.Stats
}

func viewOf(t *testing.T, server *rs.Server) serverView {
	t.Helper()
	const collectorASN = 65010
	if err := server.AddPeer(rs.Peer{ASN: collectorASN, Name: "route-collector", IPv4: true, IPv6: true}); err != nil {
		t.Fatal(err)
	}
	v := serverView{Peers: server.Peers(), Listings: map[uint32][]bgp.Route{}, Totals: map[uint32][3]uint64{}, Stats: server.Stats()}
	for _, p := range v.Peers {
		var list []bgp.Route
		total, version := server.VisitAccepted(p.ASN, 0, -1, func(r *bgp.Route) { list = append(list, r.Clone()) })
		accepted, filtered := server.RouteCounts(p.ASN)
		if accepted != total {
			t.Fatalf("AS%d: RouteCounts says %d accepted, the listing %d", p.ASN, accepted, total)
		}
		v.Listings[p.ASN] = list
		v.Totals[p.ASN] = [3]uint64{uint64(total), version, uint64(filtered)}
	}
	server.VisitExported(collectorASN, func(r *bgp.Route) { v.Export = append(v.Export, r.Clone()) })
	return v
}

// TestPopulateMatchesAnnounceEach: loading a big-four workload in one
// call (Populate, through Load) leaves a scrubbing route server exactly
// as announcing it route by route does — every listing in its order
// with its total and version, every count, the export a collector
// receives in walk order, and Stats.
func TestPopulateMatchesAnnounceEach(t *testing.T) {
	for _, p := range ixpgen.BigFour() {
		w, err := ixpgen.Generate(p, ixpgen.Options{Seed: 42, Scale: 0.004})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Populate(loaded); err != nil {
			t.Fatal(err)
		}
		each, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
		if err != nil {
			t.Fatal(err)
		}
		announceEach(t, each, w)
		got, want := viewOf(t, loaded), viewOf(t, each)
		if len(want.Export) == 0 || want.Stats.FilteredRoutes != len(w.Invalid) {
			t.Fatalf("%s: the reference exports %d routes and filtered %d", p.IXP, len(want.Export), want.Stats.FilteredRoutes)
		}
		if !reflect.DeepEqual(got, want) {
			for asn, list := range want.Listings {
				if !reflect.DeepEqual(got.Listings[asn], list) || got.Totals[asn] != want.Totals[asn] {
					t.Errorf("%s: AS%d lists %d routes at %v, want %d at %v", p.IXP, asn, len(got.Listings[asn]), got.Totals[asn], len(list), want.Totals[asn])
				}
			}
			t.Errorf("%s: the loaded server differs from the one announced route by route (stats %+v, want %+v; export %d routes, want %d)",
				p.IXP, got.Stats, want.Stats, len(got.Export), len(want.Export))
		}
	}
}
