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

	var series []*collector.Snapshot
	for day := 0; day < opts.Days; day++ {
		snap, err := collectDay(*profile, opts, day)
		if err != nil {
			log.Fatal(err)
		}
		series = append(series, snap)
		c := analysis.CountSnapshot(snap, false)
		fmt.Printf("day %2d (%s): %3d members, %6d v4 routes\n", day, snap.Date, c.Members, c.Routes)
	}

	kept, removed := sanitize.Clean(series)
	fmt.Printf("\nsanitation: %d of %d snapshots removed as valleys (paper removed 13.5%%)\n",
		removed, len(series))

	fmt.Println("\nstability over the surviving series (cf. Table 3):")
	report.WriteStability(log.Writer(), profile.IXP+"-v4", analysis.Stability(kept, false))
	report.WriteStability(log.Writer(), profile.IXP+"-v6", analysis.Stability(kept, true))
}

// collectDay builds day d's IXP state, serves it through a flaky LG
// and crawls it back — the full production path, every day.
func collectDay(p ixpgen.Profile, opts ixpgen.TemporalOptions, day int) (*collector.Snapshot, error) {
	w, date, err := ixpgen.GenerateDay(p, opts, day)
	if err != nil {
		return nil, err
	}
	server, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
	if err != nil {
		return nil, err
	}
	if err := w.Populate(server); err != nil {
		return nil, err
	}
	var handler http.Handler = lg.NewServer(server)
	handler = lg.Flaky(handler, lg.FlakyOptions{ErrorRate: 0.03, Seed: int64(day)})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	client := lg.NewClient(ts.URL, lg.ClientOptions{
		MaxRetries:   15,
		RetryBackoff: time.Millisecond,
	})
	return collector.Collect(context.Background(), client, date)
}
