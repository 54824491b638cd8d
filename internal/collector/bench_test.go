// Benchmarks live in an external test package so they can build
// realistic workloads with ixpgen (which itself imports collector).
package collector_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

// benchFixture builds a route server with nPeers members announcing
// routesPer routes each — sized like a mid-size IXP LG so the
// collection benchmarks exercise real pagination and decode work.
func benchFixture(b *testing.B, nPeers, routesPer int) *rs.Server {
	b.Helper()
	server, err := rs.New(rs.Config{Scheme: dictionary.ProfileByName("DE-CIX")})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nPeers; i++ {
		asn := uint32(100 + i)
		if err := server.AddPeer(rs.Peer{
			ASN: asn, Name: fmt.Sprintf("peer-%d", asn),
			AddrV4: netutil.PeerAddrV4(i + 1), IPv4: true,
		}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < routesPer; j++ {
			r := bgp.Route{
				Prefix:  netutil.SyntheticV4Prefix(i*routesPer + j),
				NextHop: netutil.PeerAddrV4(i + 1),
				ASPath:  bgp.ASPath{asn},
			}
			if reason, err := server.Announce(asn, r); err != nil || reason != rs.FilterNone {
				b.Fatalf("announce AS%d #%d: %v %v", asn, j, reason, err)
			}
		}
	}
	return server
}

// ribFixture is the collection path's reference workload: the AMS-IX
// profile at the scale benchmarks/e2e crawls (16 neighbors, ~6.3 k
// routes of ~20 communities each), populated into a route server.
func ribFixture(tb testing.TB) (server *rs.Server, routes int) {
	tb.Helper()
	p := ixpgen.ProfileByName("AMS-IX")
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 1, Scale: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	if server, err = rs.New(rs.Config{Scheme: p.Scheme, MaxPathLen: 64, ScrubActions: true}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		tb.Fatal(err)
	}
	st := server.Stats()
	return server, st.RoutesV4 + st.RoutesV6
}

// BenchmarkCollect measures one full LG crawl. The first five cases
// run against a simulated 120-neighbor looking glass with 1ms of
// per-request latency (the network round trip that dominates a real
// crawl): the sequential and parallel variants collect byte-identical
// snapshots, the parallel ones overlap the latency across the neighbor
// worker pool, and the flaky variants add a 5% transient error rate to
// show the fan-out keeps its advantage when retries are in play. The
// rib case removes the latency and crawls a paper-shaped table over
// loopback, so what is left is the collection path's own work — LG
// page rendering, page scanning, assembly — per route.
func BenchmarkCollect(b *testing.B) {
	const (
		nPeers    = 120
		routesPer = 4
		latency   = time.Millisecond
	)
	rib, ribRoutes := ribFixture(b)
	small := benchFixture(b, nPeers, routesPer)
	cases := []struct {
		name    string
		server  *rs.Server
		routes  int
		workers int
		fopts   lg.FlakyOptions
	}{
		{"sequential", small, nPeers * routesPer, 1, lg.FlakyOptions{Latency: latency}},
		{"parallel=4", small, nPeers * routesPer, 4, lg.FlakyOptions{Latency: latency}},
		{"parallel=8", small, nPeers * routesPer, 8, lg.FlakyOptions{Latency: latency}},
		{"flaky/sequential", small, nPeers * routesPer, 1, lg.FlakyOptions{Latency: latency, ErrorRate: 0.05, Seed: 1}},
		{"flaky/parallel=8", small, nPeers * routesPer, 8, lg.FlakyOptions{Latency: latency, ErrorRate: 0.05, Seed: 1}},
		{"rib/parallel=2", rib, ribRoutes, 2, lg.FlakyOptions{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ts := httptest.NewServer(lg.Flaky(lg.NewServer(tc.server), tc.fopts))
			defer ts.Close()
			// Default transport keeps only 2 idle conns per host; a worker
			// pool would measure connection churn instead of the crawl.
			transport := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
			defer transport.CloseIdleConnections()
			hc := &http.Client{Transport: transport}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				client := lg.NewClient(ts.URL, lg.ClientOptions{
					MaxInFlight:  tc.workers,
					MaxRetries:   8,
					RetryBackoff: time.Millisecond,
					MaxBackoff:   2 * time.Millisecond,
					HTTPClient:   hc,
				})
				snap, err := collector.CollectWithOptions(context.Background(), client, "2021-10-04", collector.CollectOptions{
					NeighborParallelism: tc.workers,
					NeighborRetries:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(snap.Routes) != tc.routes {
					b.Fatalf("routes = %d, want %d", len(snap.Routes), tc.routes)
				}
			}
			b.StopTimer()
			collector.ReportPerRoute(b, &before, tc.routes)
		})
	}
}

// BenchmarkSnapshotCodec measures serialising one paper-shaped
// snapshot (AMS-IX profile at bench scale) in both directions. The
// reported bytes and bytes_per_route metrics are the encoded size. The
// decode direction materialises every route, which is what the
// reference loader and the delta applier's base pay.
func BenchmarkSnapshotCodec(b *testing.B) {
	p := ixpgen.ProfileByName("AMS-IX")
	if p == nil {
		b.Fatal("AMS-IX profile missing")
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	snap := w.Snapshot("2021-10-04")
	nRoutes := float64(len(snap.Routes))
	var buf bytes.Buffer
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := collector.WriteSnapshot(&buf, snap, collector.CodecBinary); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "bytes")
		b.ReportMetric(float64(buf.Len())/nRoutes, "bytes_per_route")
	})
	buf.Reset()
	if err := collector.WriteSnapshot(&buf, snap, collector.CodecBinary); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := collector.NewSnapshotReaderBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			got, err := sr.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Routes) != len(snap.Routes) {
				b.Fatalf("routes = %d, want %d", len(got.Routes), len(snap.Routes))
			}
		}
	})
	// header is what a dataset listing pays per file; scan is the column
	// walk an index build rides on, with no bgp.Route assembled.
	b.Run("header", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := collector.NewSnapshotReaderBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			if sr.Header().IXP != snap.IXP {
				b.Fatal("bad header")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := collector.NewSnapshotReaderBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			rb, err := sr.RouteBlock()
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			if err := rb.Scan(func(*collector.RouteRef) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n != len(snap.Routes) {
				b.Fatalf("visited %d routes, want %d", n, len(snap.Routes))
			}
		}
	})
}
