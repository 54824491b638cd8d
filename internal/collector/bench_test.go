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
// snapshot (AMS-IX profile at bench scale) under each codec, in both
// directions and as the write-then-read-back round trip of the
// snapshot-codec ablation. The gzip variants exercise the pooled
// gzip writers; the reported bytes and bytes_per_route metrics are
// the encoded size, so the speed/size trade-off of the codec ablation
// is visible in one run. The decode direction is the one the analysis
// pipeline pays on every experiment run — the binary codec's arena
// decode is the headline number here.
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
	b.Run("encode", func(b *testing.B) {
		for _, codec := range collector.Codecs() {
			b.Run(codec.String(), func(b *testing.B) {
				var buf bytes.Buffer
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if err := collector.WriteSnapshot(&buf, snap, codec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(buf.Len()), "bytes")
				b.ReportMetric(float64(buf.Len())/nRoutes, "bytes_per_route")
			})
		}
	})
	b.Run("decode", func(b *testing.B) {
		for _, codec := range collector.Codecs() {
			b.Run(codec.String(), func(b *testing.B) {
				var buf bytes.Buffer
				if err := collector.WriteSnapshot(&buf, snap, codec); err != nil {
					b.Fatal(err)
				}
				data := buf.Bytes()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := collector.ReadSnapshot(bytes.NewReader(data), codec)
					if err != nil {
						b.Fatal(err)
					}
					if len(got.Routes) != len(snap.Routes) {
						b.Fatalf("routes = %d, want %d", len(got.Routes), len(snap.Routes))
					}
				}
				b.ReportMetric(float64(len(data)), "bytes")
				b.ReportMetric(float64(len(data))/nRoutes, "bytes_per_route")
			})
		}
	})
	b.Run("roundtrip", func(b *testing.B) {
		for _, codec := range collector.Codecs() {
			b.Run(codec.String(), func(b *testing.B) {
				var size int
				for i := 0; i < b.N; i++ {
					var buf bytes.Buffer
					if err := collector.WriteSnapshot(&buf, snap, codec); err != nil {
						b.Fatal(err)
					}
					size = buf.Len()
					if _, err := collector.ReadSnapshot(&buf, codec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(size), "bytes")
				b.ReportMetric(float64(size)/nRoutes, "bytes_per_route")
			})
		}
	})
}

// BenchmarkSnapshotStream measures the streaming read path over a
// binary snapshot: header-only open (what a dataset index pays per
// file) and a full ForEachRoute walk (what a dataset-wide scan pays
// without ever materialising a []bgp.Route).
func BenchmarkSnapshotStream(b *testing.B) {
	p := ixpgen.ProfileByName("AMS-IX")
	if p == nil {
		b.Fatal("AMS-IX profile missing")
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	snap := w.Snapshot("2021-10-04")
	var buf bytes.Buffer
	if err := collector.WriteSnapshot(&buf, snap, collector.CodecBinary); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("header", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := collector.NewSnapshotReader(bytes.NewReader(data), "bench.bin")
			if err != nil {
				b.Fatal(err)
			}
			if sr.Header().IXP != snap.IXP {
				b.Fatal("bad header")
			}
		}
	})
	b.Run("foreach", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := collector.NewSnapshotReader(bytes.NewReader(data), "bench.bin")
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			if err := sr.ForEachRoute(func(bgp.Route) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n != len(snap.Routes) {
				b.Fatalf("visited %d routes, want %d", n, len(snap.Routes))
			}
		}
	})
}
