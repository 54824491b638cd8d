// Pipeline example: the paper's §3 data pipeline end to end over HTTP —
// one route server lives through three weeks of an evolved series, a
// flaky looking glass in front of it is crawled daily, valleys are
// injected into two collections, sanitation removes them, and the §4
// stability numbers are computed over the surviving series.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
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

	// The full production path, every day: the day's churn moves the
	// route server on from yesterday, and the looking glass in front of
	// it is crawled.
	server, err := rs.New(rs.Config{Scheme: profile.Scheme, ScrubActions: true})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{ErrorRate: 0.03, Seed: opts.Seed}))
	client := lg.NewClient(ts.URL, lg.ClientOptions{
		MaxRetries:   15,
		RetryBackoff: time.Millisecond,
	})
	var series []analysis.DayCounts
	var prev *collector.Snapshot
	err = ixpgen.EvolveSeries(*profile, opts, 0, func(day int, evolved *collector.Snapshot) error {
		if err := ixpgen.AdvanceServer(server, prev, evolved); err != nil {
			return err
		}
		prev = evolved
		snap, err := collector.Collect(context.Background(), client, evolved.Date)
		if err != nil {
			return err
		}
		c := analysis.CountDay(snap)
		series = append(series, c)
		fmt.Printf("day %2d (%s): %3d members, %6d v4 routes\n", day, snap.Date, c.V4.Members, c.V4.Routes)
		return nil
	})
	ts.Close()
	if err != nil {
		log.Fatal(err)
	}

	kept, removed := sanitize.Clean(series)
	fmt.Printf("\nsanitation: %d of %d snapshots removed as valleys (paper removed 13.5%%)\n",
		removed, len(series))

	fmt.Println("\nstability over the surviving series (cf. Table 3):")
	rows := report.AppendStability(nil, profile.IXP+"-v4", analysis.Stability(kept, false))
	log.Writer().Write(report.AppendStability(rows, profile.IXP+"-v6", analysis.Stability(kept, true)))
}
