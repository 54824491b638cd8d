// Command ixpgen materialises the paper's released artifact: a
// twelve-week dataset of daily snapshots for the selected IXPs, written
// as files that cmd/analyze -snapshots can consume.
//
// Usage:
//
//	ixpgen [-out ./dataset] [-ixps big4|all|NAME,...] [-days 84]
//	       [-scale 0.02] [-seed 42] [-codec binary|delta] [-valleys 9,41]
//	       [-churn 0.03]
//
// By default every day is generated independently (GenerateDay). With
// -churn each IXP's series is instead evolved day over day: day N is
// day N-1 with the given fraction of routes withdrawn, re-tagged or
// flapped plus fresh announcements and weekly member churn — the
// realistic input for -codec delta, which stores day 0 as a full
// binary snapshot and every later day as a .delta file.
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

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/telemetry"
)

func main() {
	out := flag.String("out", "./dataset", "output directory")
	ixps := flag.String("ixps", "big4", "comma-separated IXP names, 'big4' or 'all'")
	days := flag.Int("days", 84, "number of daily snapshots (84 = twelve weeks)")
	scale := flag.Float64("scale", 0.02, "workload scale")
	seed := flag.Int64("seed", 42, "generation seed")
	codecName := flag.String("codec", "binary", "dataset files to write: binary (every day a full .bin) or delta (day 0 a .bin, later days .delta)")
	valleySpec := flag.String("valleys", "", "comma-separated day offsets with injected collection failures")
	profilePath := flag.String("profile", "", "JSON file with a custom IXP profile (overrides -ixps)")
	churn := flag.Float64("churn", 0,
		"evolve each series day over day with this route-churn fraction instead of regenerating every day (0 = independent days; -codec delta implies 0.03)")
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
	asDelta := *codecName == "delta"
	if !asDelta && *codecName != "binary" {
		log.Fatalf("unknown -codec %q (binary, delta)", *codecName)
	}
	if asDelta && *churn <= 0 {
		// A delta chain over independently regenerated days would
		// encode nearly every route as churn; evolve instead.
		*churn = 0.03
	}
	valleys, err := parseValleys(*valleySpec)
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
		dir := filepath.Join(*out, "snapshots")
		if *churn > 0 {
			n, err := writeEvolvedSeries(dir, p, opts, *churn, asDelta)
			if err != nil {
				log.Fatal(err)
			}
			files += n
			sp.SetAttrInt("files", int64(n))
			sp.End()
			log.Printf("%s: %d evolved daily snapshots (churn %.3f)", p.IXP, *days, *churn)
			continue
		}
		for d := 0; d < *days; d++ {
			w, date, err := ixpgen.GenerateDay(p, opts, d)
			if err != nil {
				log.Fatal(err)
			}
			snap := w.Snapshot(date)
			if _, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary); err != nil {
				log.Fatal(err)
			}
			files++
		}
		sp.SetAttrInt("files", int64(*days))
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

// writeEvolvedSeries generates one IXP's day-over-day evolved series
// in a single run. With asDelta set, day 0 is saved as a full binary
// snapshot and every later day as one .delta file against the
// previous day; otherwise each day is a full binary snapshot.
func writeEvolvedSeries(dir string, p ixpgen.Profile, opts ixpgen.TemporalOptions, churn float64, asDelta bool) (int, error) {
	files := 0
	var enc *collector.DeltaEncoder
	err := ixpgen.EvolveSeries(p, opts, churn, func(day int, snap *collector.Snapshot) error {
		files++
		if enc == nil {
			_, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary)
			if err == nil && asDelta {
				enc, err = collector.NewDeltaEncoder(snap)
			}
			return err
		}
		buf, err := enc.Encode(snap)
		if err != nil {
			return err
		}
		_, err = collector.SaveDelta(dir, snap, buf)
		return err
	})
	return files, err
}

func parseValleys(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad valley day %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
