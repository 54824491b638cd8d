// Pipeline example: the paper's §3 data pipeline end to end over HTTP —
// a flaky looking glass is crawled daily for three weeks, valleys are
// injected into two collections, sanitation removes them, and the §4
// stability numbers are computed over the surviving series.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/netutil"
	"ixplight/internal/report"
	"ixplight/internal/rs"
	"ixplight/internal/sanitize"
)

func main() {
	profile := ixpgen.ProfileByName("AMS-IX")
	opts := ixpgen.TemporalOptions{
		Seed:       7,
		Scale:      0.02,
		Days:       21,
		ValleyDays: []int{5, 13}, // two injected collection failures
	}

	var series []analysis.DayCounts
	err := ixpgen.EvolveSeries(*profile, opts, 0, func(day int, evolved *collector.Snapshot) error {
		snap, err := collectDay(profile.Scheme, evolved, day)
		if err != nil {
			return err
		}
		c := analysis.CountDay(snap)
		series = append(series, c)
		fmt.Printf("day %2d (%s): %3d members, %6d v4 routes\n", day, snap.Date, c.V4.Members, c.V4.Routes)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	kept, removed := sanitize.Clean(series)
	fmt.Printf("\nsanitation: %d of %d snapshots removed as valleys (paper removed 13.5%%)\n",
		removed, len(series))

	fmt.Println("\nstability over the surviving series (cf. Table 3):")
	report.WriteStability(log.Writer(), profile.IXP+"-v4", analysis.Stability(kept, false))
	report.WriteStability(log.Writer(), profile.IXP+"-v6", analysis.Stability(kept, true))
}

// collectDay loads one evolved day into a route server, serves it
// through a flaky LG and crawls it back — the full production path,
// every day.
func collectDay(scheme *dictionary.Scheme, evolved *collector.Snapshot, day int) (*collector.Snapshot, error) {
	server, err := rs.New(rs.Config{Scheme: scheme, ScrubActions: true})
	if err != nil {
		return nil, err
	}
	for i, m := range evolved.Members {
		if err := server.AddPeer(rs.Peer{ASN: m.ASN, Name: m.Name, IPv4: m.IPv4, IPv6: m.IPv6,
			AddrV4: netutil.PeerAddrV4(i + 1), AddrV6: netutil.PeerAddrV6(i + 1)}); err != nil {
			return nil, err
		}
	}
	for _, r := range evolved.Routes {
		// Announce fails only for a peer without a session: a valley day
		// lost some members, and with them their routes.
		if reason, err := server.Announce(r.PeerAS(), r); err == nil && reason != rs.FilterNone {
			return nil, fmt.Errorf("evolved route %s from AS%d rejected: %v", r.Prefix, r.PeerAS(), reason)
		}
	}
	var handler http.Handler = lg.NewServer(server)
	handler = lg.Flaky(handler, lg.FlakyOptions{ErrorRate: 0.03, Seed: int64(day)})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	client := lg.NewClient(ts.URL, lg.ClientOptions{
		MaxRetries:   15,
		RetryBackoff: time.Millisecond,
	})
	return collector.Collect(context.Background(), client, evolved.Date)
}
