package ixpgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/lg"
	"ixplight/internal/rs"
)

// TestSnapshotMatchesCollectedSnapshot holds the fast path to the full
// one: a workload populated into a route server, served by the looking
// glass with 5% injected errors and crawled by the collector must come
// back as the snapshot Workload.Snapshot packages directly.
func TestSnapshotMatchesCollectedSnapshot(t *testing.T) {
	const date = "2021-10-04"
	for _, p := range BigFour() {
		w, err := Generate(p, Options{Seed: 42, Scale: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		server, err := rs.New(rs.Config{Scheme: p.Scheme, MaxPathLen: 64, ScrubActions: true})
		if err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		if err := w.Populate(server); err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{ErrorRate: 0.05, Seed: 42}))
		client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 20, RetryBackoff: time.Millisecond})
		collected, err := collector.Collect(context.Background(), client, date)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: collect: %v", p.IXP, err)
		}

		direct := w.Snapshot(date)
		for _, v6 := range []bool{false, true} {
			if a, b := analysis.CountSnapshot(direct, v6), analysis.CountSnapshot(collected, v6); a != b {
				t.Errorf("%s v6=%v: direct %+v, crawled %+v", p.IXP, v6, a, b)
			}
		}
		if !reflect.DeepEqual(direct.Members, collected.Members) {
			t.Errorf("%s: members differ", p.IXP)
		}
		if collected.FilteredCount != direct.FilteredCount {
			t.Errorf("%s: filtered %d, direct %d", p.IXP, collected.FilteredCount, direct.FilteredCount)
		}
		if len(direct.Routes) != len(collected.Routes) {
			t.Fatalf("%s: %d routes crawled, %d direct", p.IXP, len(collected.Routes), len(direct.Routes))
		}
		for i := range direct.Routes {
			if a, b := direct.Routes[i], collected.Routes[i]; !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: route %d: direct %+v, crawled %+v", p.IXP, i, a, b)
			}
		}
	}
}
