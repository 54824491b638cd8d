package ixpgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/lg"
	"ixplight/internal/rs"
)

// TestSnapshotMatchesCollectedSnapshot holds the generated series to
// what a crawl can see: a workload populated into a route server,
// moved day by day through its evolved series by AdvanceServer (past
// the day-7 member churn), served by the looking glass with 5%
// injected errors and crawled by the collector must come back each day
// as the snapshot EvolveSeries emitted, route for route.
func TestSnapshotMatchesCollectedSnapshot(t *testing.T) {
	const seed, scale, days = 42, 0.01, 8
	for _, p := range BigFour() {
		w, err := Generate(p, Options{Seed: seed, Scale: scale})
		if err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		server, err := rs.New(rs.Config{Scheme: p.Scheme, MaxPathLen: 64, ScrubActions: true})
		if err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		// Day 0 with the invalid announcements behind its filtered count.
		if err := w.Populate(server); err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{ErrorRate: 0.05, Seed: seed}))
		client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 20, RetryBackoff: time.Millisecond})
		var prev *collector.Snapshot
		err = EvolveSeries(p, TemporalOptions{Seed: seed, Scale: scale, Days: days}, 0, func(day int, direct *collector.Snapshot) error {
			if prev != nil {
				if err := AdvanceServer(server, prev, direct); err != nil {
					return err
				}
			}
			prev = direct
			collected, err := collector.Collect(context.Background(), client, direct.Date)
			if err != nil {
				return err
			}
			checkCrawl(t, p.IXP+" "+direct.Date, direct, collected)
			return nil
		})
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
	}
}

// checkCrawl reports where a crawled day differs from the generated one.
func checkCrawl(t *testing.T, day string, direct, collected *collector.Snapshot) {
	t.Helper()
	for _, v6 := range []bool{false, true} {
		if a, b := analysis.CountDay(direct).Family(v6), analysis.CountDay(collected).Family(v6); a != b {
			t.Errorf("%s v6=%v: direct %+v, crawled %+v", day, v6, a, b)
		}
	}
	if !reflect.DeepEqual(direct.Members, collected.Members) {
		t.Errorf("%s: members differ", day)
	}
	if collected.FilteredCount != direct.FilteredCount {
		t.Errorf("%s: filtered %d, direct %d", day, collected.FilteredCount, direct.FilteredCount)
	}
	if len(direct.Routes) != len(collected.Routes) {
		t.Errorf("%s: %d routes crawled, %d direct", day, len(collected.Routes), len(direct.Routes))
		return
	}
	// fields prints every field of a route, where its String would
	// leave the scalars out.
	type fields bgp.Route
	differ, first := 0, -1
	for i := range direct.Routes {
		if !reflect.DeepEqual(direct.Routes[i], collected.Routes[i]) {
			if differ++; first < 0 {
				first = i
			}
		}
	}
	if differ > 0 {
		t.Errorf("%s: %d routes differ, the first:\n direct  %+v\n crawled %+v",
			day, differ, fields(direct.Routes[first]), fields(collected.Routes[first]))
	}
}
