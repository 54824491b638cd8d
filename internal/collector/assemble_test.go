package collector

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/lg"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

// TestMergeRouteBlocksIsNormalize: merging any blocks — sorted,
// shuffled, empty, with equal keys — gives what concatenating and
// Normalize-sorting them gives, in one exactly-sized slice.
func TestMergeRouteBlocksIsNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	route := func(peer uint32, i int, v6 bool) bgp.Route {
		p := netutil.SyntheticV4Prefix(i)
		if v6 {
			p = netutil.SyntheticV6Prefix(i)
		}
		return bgp.Route{Prefix: p, ASPath: bgp.ASPath{peer}, MED: rng.Uint32()}
	}
	for round := 0; round < 200; round++ {
		var blocks [][]bgp.Route
		for b := rng.Intn(6); b > 0; b-- {
			var block []bgp.Route
			peer := uint32(100 + rng.Intn(4)) // peers repeat across blocks: equal keys happen
			for n := rng.Intn(12); n > 0; n-- {
				block = append(block, route(peer, rng.Intn(15), rng.Intn(3) == 0))
			}
			if rng.Intn(3) > 0 {
				slices.SortStableFunc(block, func(a, b bgp.Route) int { return routeCompare(&a, &b) })
			}
			blocks = append(blocks, block)
		}
		var want []bgp.Route
		for _, block := range blocks {
			want = append(want, block...)
		}
		// Stable, so that equal keys are in block order: the one order
		// among Normalize's possible ones that the merge promises.
		slices.SortStableFunc(want, func(a, b bgp.Route) int { return routeCompare(&a, &b) })
		got := MergeRouteBlocks(blocks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merge differs from concatenate + sort\n got  %v\n want %v", round, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("round %d: merged slice has capacity %d for %d routes", round, cap(got), len(got))
		}
	}
	if got := MergeRouteBlocks([][]bgp.Route{nil, {}}); got != nil {
		t.Errorf("no routes merge to %#v, want nil (a digest tells nil from empty)", got)
	}
}

// assemblyFixture is a route server whose neighbors' listings
// interleave: every peer announces v4 and v6 prefixes spread over the
// same ranges, and some prefixes are announced by several peers.
func assemblyFixture(t testing.TB, peers []uint32, routesPer int) *rs.Server {
	t.Helper()
	server, err := rs.New(rs.Config{Scheme: dictionary.ProfileByName("DE-CIX")})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range peers {
		if err := server.AddPeer(rs.Peer{ASN: asn, Name: "peer", IPv4: true, IPv6: true}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < routesPer; j++ {
			r := bgp.Route{
				Prefix:      netutil.SyntheticV4Prefix(j*len(peers) + i),
				NextHop:     netutil.PeerAddrV4(i + 1),
				ASPath:      bgp.ASPath{asn, 3320},
				Communities: []bgp.Community{bgp.NewCommunity(uint16(asn), uint16(j))},
			}
			switch j % 3 {
			case 1:
				r.Prefix, r.NextHop = netutil.SyntheticV6Prefix(j*len(peers)+i), netutil.PeerAddrV6(i+1)
			case 2:
				r.Prefix = netutil.SyntheticV4Prefix(10000 + j) // shared with every other peer
			}
			if reason, err := server.Announce(asn, r); err != nil || reason != rs.FilterNone {
				t.Fatalf("announce AS%d #%d: %v %v", asn, j, reason, err)
			}
		}
	}
	return server
}

// concatenateAndNormalize rebuilds a crawled snapshot's routes the way
// CollectWithOptions did before it merged: every collected neighbor's
// accepted routes, taken from the route server itself, concatenated
// and Normalize-sorted.
func concatenateAndNormalize(server *rs.Server, snap *Snapshot) *Snapshot {
	ref := *snap
	ref.Routes = nil
	failed := snap.FailedMemberSet()
	for _, m := range snap.Members {
		if !failed[m.ASN] {
			ref.Routes = append(ref.Routes, server.AcceptedRoutes(m.ASN)...)
		}
	}
	ref.Normalize()
	return &ref
}

// TestCollectMatchesConcatenateAndNormalize holds the merged assembly
// to the old one — same SnapshotDigest — for every worker count, on a
// healthy LG, a flaky one, one with dead neighbors (partial) and a
// crawl resumed from the partial one's checkpoint.
func TestCollectMatchesConcatenateAndNormalize(t *testing.T) {
	peers := []uint32{100, 200, 300, 400, 500, 600, 700, 800, 900}
	server := assemblyFixture(t, peers, 11)
	transient := lg.FlakyOptions{ErrorRate: 0.15, RateLimitEvery: 11, RetryAfter: time.Second, TruncateEvery: 13, Seed: 7}
	outage := transient
	outage.NeighborOutage = []uint32{300, 800}
	for _, workers := range equivalenceWorkerCounts() {
		collect := func(name string, fopts lg.FlakyOptions, opts CollectOptions) *Snapshot {
			t.Helper()
			ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), fopts))
			defer ts.Close()
			client := lg.NewClient(ts.URL, lg.ClientOptions{
				PageSize: 4, MaxInFlight: workers, MaxRetries: 20,
				RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, MaxRetryAfter: 2 * time.Millisecond,
			})
			opts.NeighborParallelism = workers
			snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", opts)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			if ref := concatenateAndNormalize(server, snap); SnapshotDigest(snap) != SnapshotDigest(ref) {
				t.Errorf("workers=%d %s: merged snapshot differs from concatenate + Normalize (%d vs %d routes)",
					workers, name, len(snap.Routes), len(ref.Routes))
			}
			if cap(snap.Routes) != len(snap.Routes) {
				t.Errorf("workers=%d %s: Routes has capacity %d for %d routes", workers, name, cap(snap.Routes), len(snap.Routes))
			}
			return snap
		}
		healthy := collect("healthy", lg.FlakyOptions{}, CollectOptions{})
		if want := len(peers) * 11; len(healthy.Routes) != want || healthy.Partial {
			t.Fatalf("workers=%d healthy: %d routes (partial=%v), want %d", workers, len(healthy.Routes), healthy.Partial, want)
		}
		collect("flaky", transient, CollectOptions{NeighborRetries: 2})
		progress := &Checkpoint{IXP: healthy.IXP, Date: "2021-10-04"}
		partial := collect("partial", outage, CollectOptions{Partial: true, NeighborRetries: 1, Checkpoint: progress})
		if !partial.Partial || len(partial.MemberErrors) != 2 {
			t.Fatalf("workers=%d partial: member errors %+v", workers, partial.MemberErrors)
		}
		resumed := collect("resumed", lg.FlakyOptions{}, CollectOptions{Checkpoint: progress})
		if SnapshotDigest(resumed) != SnapshotDigest(healthy) {
			t.Errorf("workers=%d: resumed snapshot differs from the healthy crawl's", workers)
		}
	}
}

// TestCollectSortsAnOutOfOrderListing: a looking glass that returns a
// neighbor's routes out of prefix order costs the merge extra runs,
// not the snapshot its order.
func TestCollectSortsAnOutOfOrderListing(t *testing.T) {
	server := assemblyFixture(t, []uint32{100, 200, 300}, 14)
	inner := lg.NewServer(server)
	scrambled := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/neighbors/200/routes/received") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var page lg.RoutesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Error(err)
		}
		slices.Reverse(page.Routes)
		if len(page.Routes) > 3 {
			page.Routes[0], page.Routes[2] = page.Routes[2], page.Routes[0]
		}
		json.NewEncoder(w).Encode(page)
	})
	for _, workers := range []int{1, 3} {
		ts := httptest.NewServer(scrambled)
		client := lg.NewClient(ts.URL, lg.ClientOptions{PageSize: 5, MaxInFlight: workers})
		snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{NeighborParallelism: workers})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRouteOrder(snap.Routes); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if SnapshotDigest(snap) != SnapshotDigest(concatenateAndNormalize(server, snap)) {
			t.Errorf("workers=%d: snapshot of a scrambled listing differs from concatenate + Normalize", workers)
		}
	}
}

// TestCollectKeepsNoCheckpointNobodyAskedFor: without Checkpoint or
// CheckpointPath the crawl records no progress; with a Checkpoint it
// still extends the caller's.
func TestCollectKeepsNoCheckpointNobodyAskedFor(t *testing.T) {
	server := assemblyFixture(t, []uint32{100, 200}, 6)
	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()
	var w *checkpointWriter
	if err := w.markDone(100, []bgp.Route{{}}); err != nil {
		t.Fatalf("nil writer: %v", err)
	}
	progress := &Checkpoint{IXP: "DE-CIX", Date: "2021-10-04"}
	client := lg.NewClient(ts.URL, lg.ClientOptions{})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{Checkpoint: progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(progress.Done) != 2 || len(progress.Routes) != len(snap.Routes) {
		t.Errorf("caller's checkpoint: %d done, %d routes; want 2 and %d", len(progress.Done), len(progress.Routes), len(snap.Routes))
	}
}

// TestAppendAddrIsMarshalBinary: the hand-written address encoding is
// netip's MarshalBinary form, length-prefixed, for every kind of Addr.
func TestAppendAddrIsMarshalBinary(t *testing.T) {
	for _, a := range []netip.Addr{
		{}, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:192.0.2.1"), netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("::"),
		netip.MustParseAddr("fe80::1%" + strings.Repeat("z", 200)),
	} {
		raw, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want := append(appendUvarint(nil, uint64(len(raw))), raw...)
		if got := appendAddr(nil, a); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: appendAddr = %x, want %x", a, got, want)
		}
	}
}
