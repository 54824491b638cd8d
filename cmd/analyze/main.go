// Command analyze regenerates the paper's tables and figures from a
// dataset of daily snapshots: one it generates, or one collected or
// written before.
//
// Usage:
//
//	analyze [-exp all|table1|fig1|...|sanitation] [-scale 0.05] [-seed 42]
//	        [-ixps IX.br-SP,DE-CIX,LINX,AMS-IX | all] [-snapshots dir]
//	        [-parallel N] [-trace file]
//
// With -snapshots it loads the .bin and .delta files of a dataset
// directory and reports on the IXPs it holds days of; -ixps narrows that
// to the IXPs it names, each of which the dataset must hold. Every
// other file is left alone, and each day is served once. Without it, it
// writes the dataset `ixpgen -days 84 -valleys 9,41`
// writes at the same -ixps, -seed and -scale into a temporary
// directory, loads it the same way and removes it, so both modes read
// the same world: the point-in-time experiments read each IXP's last
// day (2021-10-10), the temporal ones its twelve weeks. Binary snapshot
// files are indexed straight off their columns (no []bgp.Route is ever
// materialized), and delta chains (a day-0 .bin plus daily .delta
// files, as `ixpgen` and `collect` write them)
// are walked incrementally: each day's index advances from the previous
// day's by applying the delta.
//
// -parallel bounds the worker pools and nothing else: generated series,
// dataset files, delta chains and experiments fan out across the pool,
// each landing in an ordered slot, so the output is byte-identical for
// any value. -parallel 1 runs everything sequentially.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, "+strings.Join(report.ExperimentNames, ", ")+")")
	scale := flag.Float64("scale", 0.05, "workload scale relative to the paper's magnitudes")
	seed := flag.Int64("seed", 42, "generation seed")
	ixps := flag.String("ixps", "big4", "comma-separated IXP names, 'big4' or 'all' (with -snapshots, default: the IXPs the dataset holds)")
	snapshotDir := flag.String("snapshots", "", "load the .bin and .delta files of this directory (of the -ixps IXPs, if given) instead of generating a dataset")
	outDir := flag.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker bound for generation, dataset loading and experiments (1 = sequential)")
	tracePath := flag.String("trace", "", "write a trace ledger for the run to this file (inspect with tracecat)")
	flag.Parse()

	named := false
	flag.Visit(func(f *flag.Flag) { named = named || f.Name == "ixps" })
	if *snapshotDir != "" && !named {
		*ixps = "all" // study the IXPs the dataset holds
	}
	profiles, err := ixpgen.SelectProfiles(*ixps)
	if err != nil {
		fatal(err)
	}
	// With -trace, the whole run becomes one trace ledger: an
	// analyze.run root span parents every report.experiment span, and
	// analysis.SetTelemetry — installed before the lab is built, because
	// the lab's builder is who builds its indexes — records the index
	// build/advance spans.
	var reg *telemetry.Registry
	var traceSink *telemetry.JSONLSink
	if *tracePath != "" {
		traceSink, err = telemetry.NewJSONLSink(*tracePath, 0)
		if err != nil {
			fatal(err)
		}
		reg = telemetry.New()
		reg.SetSpanSink(traceSink)
		analysis.SetTelemetry(reg)
	}
	var lab *report.Lab
	if *snapshotDir != "" {
		lab = report.NewLabShell(profiles, *seed, *scale, *parallel)
		if err := lab.LoadSnapshotDir(*snapshotDir); err != nil {
			fatal(err)
		}
		if len(lab.Indexes) == 0 {
			fatal(fmt.Errorf("%s holds no snapshot of a known IXP", *snapshotDir))
		}
		for _, p := range profiles {
			if named && lab.Indexes[p.IXP] == nil {
				fatal(fmt.Errorf("%s holds no snapshot of %s; name the dataset's IXPs with -ixps, or leave -ixps out", *snapshotDir, p.IXP))
			}
		}
	} else if lab, err = report.GenerateLab(profiles, *seed, *scale, *parallel); err != nil {
		fatal(err)
	}
	var rootSpan *telemetry.Span
	if reg != nil {
		lab.Telemetry = reg
		lab.TraceCtx, rootSpan = telemetry.StartSpan(context.Background(), reg, "analyze.run")
		rootSpan.SetAttr("exp", *exp)
		rootSpan.SetAttrInt("parallel", int64(*parallel))
	}

	names := report.ExperimentNames
	if *exp != "all" {
		names = strings.Split(*exp, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	outs, runErr := lab.RunMany(names)
	if rootSpan != nil {
		if runErr != nil {
			rootSpan.SetAttr("error", runErr.Error())
		}
		rootSpan.End()
		if err := traceSink.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "analyze: trace ledger:", err)
		} else {
			fmt.Fprintln(os.Stderr, "analyze: trace ledger →", *tracePath)
		}
	}
	for i, out := range outs {
		os.Stdout.Write(out)
		if *outDir != "" {
			path := filepath.Join(*outDir, names[i]+".txt")
			if err := os.WriteFile(path, out, 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
