// Command ixpgen materialises the paper's released artifact: a
// twelve-week dataset of daily snapshots for the selected IXPs, written
// as files that cmd/analyze -snapshots can consume.
//
// Usage:
//
//	ixpgen [-out ./dataset] [-ixps big4|all|NAME,...] [-days 84]
//	       [-scale 0.02] [-seed 42] [-valleys 9,41]
//
// Each IXP's series is evolved day over day and written by
// ixpgen.WriteSeries, the writer `analyze` generates its dataset with,
// as one chain: day 0 a .bin, every later day a .delta against the day
// before. `-days 84 -valleys 9,41` at analyze's -ixps, -seed and -scale
// is the dataset a generated `analyze` run loads. Every run writes a
// fresh chain over same-named files. -valleys takes offsets in
// [1, -days).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ixplight/internal/ixpgen"
	"ixplight/internal/telemetry"
)

func main() {
	out := flag.String("out", "./dataset", "output directory")
	ixps := flag.String("ixps", "big4", "comma-separated IXP names, 'big4' or 'all'")
	days := flag.Int("days", 84, "number of daily snapshots (84 = twelve weeks)")
	scale := flag.Float64("scale", 0.02, "workload scale")
	seed := flag.Int64("seed", 42, "generation seed")
	valleySpec := flag.String("valleys", "", "comma-separated day offsets with injected collection failures")
	profilePath := flag.String("profile", "", "JSON file with a custom IXP profile (overrides -ixps)")
	tracePath := flag.String("trace", "", "write a trace ledger for the run to this file (inspect with tracecat)")
	flag.Parse()

	// With -trace, generation is traced: one ixpgen.run root span with
	// one ixpgen.ixp child per generated series.
	var traceSink *telemetry.JSONLSink
	var traceReg *telemetry.Registry
	traceCtx := context.Background()
	var rootSpan *telemetry.Span
	if *tracePath != "" {
		sink, err := telemetry.NewJSONLSink(*tracePath, 0)
		if err != nil {
			log.Fatal(err)
		}
		traceSink = sink
		traceReg = telemetry.New()
		traceReg.SetSpanSink(sink)
		traceCtx, rootSpan = telemetry.StartSpan(traceCtx, traceReg, "ixpgen.run")
	}

	var profiles []ixpgen.Profile
	var err error
	if *profilePath != "" {
		custom, err := ixpgen.LoadProfile(*profilePath)
		if err != nil {
			log.Fatal(err)
		}
		profiles = []ixpgen.Profile{*custom}
	} else {
		profiles, err = ixpgen.SelectProfiles(*ixps)
		if err != nil {
			log.Fatal(err)
		}
	}
	valleys, err := parseValleys(*valleySpec, *days)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	files := 0
	for _, p := range profiles {
		_, sp := telemetry.StartSpan(traceCtx, traceReg, "ixpgen.ixp")
		sp.SetAttr("ixp", p.IXP)
		sp.SetAttrInt("days", int64(*days))
		opts := ixpgen.TemporalOptions{
			Seed: *seed, Scale: *scale, Days: *days, ValleyDays: valleys,
		}
		n, err := ixpgen.WriteSeries(filepath.Join(*out, "snapshots"), p, opts)
		if err != nil {
			log.Fatal(err)
		}
		files += n
		sp.SetAttrInt("files", int64(n))
		sp.End()
		log.Printf("%s: %d daily snapshots", p.IXP, *days)
	}

	if rootSpan != nil {
		rootSpan.SetAttrInt("files", int64(files))
		rootSpan.End()
		if err := traceSink.Close(); err != nil {
			log.Printf("trace ledger: %v", err)
		} else {
			log.Printf("trace ledger → %s", *tracePath)
		}
	}
	log.Printf("dataset complete: %d snapshot files in %s (%v)",
		files, *out, time.Since(start).Round(time.Millisecond))
}

// parseValleys reads -valleys: comma-separated day offsets in
// [1, days). Day 0 is the series' base, which a valley cannot drop
// from, and an offset past the series would silently inject nothing.
func parseValleys(spec string, days int) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad valley day %q", s)
		}
		if v < 1 || v >= days {
			return nil, fmt.Errorf("valley day %d outside [1, %d): day 0 is the base and the series has %d days", v, days, days)
		}
		out = append(out, v)
	}
	return out, nil
}
