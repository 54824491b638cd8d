// Command e2e is the repository's benchmark: five workloads that drive
// the real public entry points of every layer (ixpgen, rs, lg,
// collector, analysis, report, ixpd) from one process over loopback
// sockets, check their outputs, and print every metric by name.
//
//	go run ./benchmarks/e2e -workload crawl|analyze|serve-warm|serve-cold|reload
//	        -seed N [-seconds S] [-trace 0|1] [-spans FILE]
//	go run ./benchmarks/e2e -aa N [-seconds S]
//
// -trace 0 (the default) is the end-to-end run: tracing off, the seven
// end-to-end metrics. -trace 1 is the traced run: harness-side spans
// around every call into a layer, the per-layer metrics and a stage
// table. -aa N runs N alternating pairs of sets of this same binary
// and checks them against the bounds in BENCHMARK.json.
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// README.md in this directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloadNames is every workload, in pipeline order.
var workloadNames = []string{"crawl", "analyze", "serve-warm", "serve-cold", "reload"}

func newWorkload(name string, sz size) (workload, error) {
	switch name {
	case "crawl":
		return newCrawlWorkload(sz), nil
	case "analyze":
		return newAnalyzeWorkload(sz), nil
	case "serve-warm":
		return newServeWorkload(sz, false), nil
	case "serve-cold":
		return newServeWorkload(sz, true), nil
	case "reload":
		return newReloadWorkload(sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	workdir  string
	spans    string    // write the recorded spans here (traced runs)
	out      io.Writer // human-readable report; nil silences it
}

// result is what a run reports; it marshals to the contract's last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	stages []stageRow
}

const (
	// A run sets its workload up over and over for setupBudget, and at
	// least minSetups times; setup_s is the median. One set-up is 0.1 s
	// (crawl) to 0.7 s (analyze), so a time budget gives the small ones,
	// whose relative noise is largest, the most repetitions.
	setupBudget = 4500 * time.Millisecond
	minSetups   = 3
	// hardCap bounds the timed phase however slow the machine is.
	hardCap = 100 * time.Second
)

// run executes one workload once.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.size)
	if err != nil {
		return nil, err
	}
	out := cfg.out
	if out == nil {
		out = io.Discard
	}
	h := &harness{
		cal:     newCalibrator(cfg.size),
		seed:    cfg.seed,
		size:    cfg.size,
		workdir: cfg.workdir,
		opSpan:  -1,
		log:     func(format string, args ...any) { fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...) },
	}
	if cfg.trace {
		h.tr = newTracer() // installed now, switched on for the traced phase
	}
	minOps, reps, budget := minTimedOps, minSetups, setupBudget
	if cfg.size == sizeToy {
		minOps, reps, budget = 6, 1, 0
	}

	// Set-up, several times over: the median is setup_s.
	var setups []setupResult
	for start := time.Now(); len(setups) < reps || time.Since(start) < budget; {
		if len(setups) > 0 {
			w.teardown()
		}
		res, err := h.runSetup(w)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, res)
	}
	defer w.teardown()
	sort.Slice(setups, func(i, j int) bool { return setups[i].calSeconds() < setups[j].calSeconds() })
	setup := setups[len(setups)/2]

	res := &result{Metrics: metricSet{}}
	for i := 0; i < warmupOps; i++ {
		res.Attempted++
		if s := h.runOp(w, i); s.failed {
			res.Failed++
		}
	}

	timed := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, traced []sample
	if !cfg.trace {
		untraced = h.runOps(w, warmupOps, minOps, timed, hardCap)
	} else {
		// Same process, same installed wrappers, tracing off then on:
		// the ratio of the two medians is the tracing overhead.
		untraced = h.runOps(w, warmupOps, minOps/4, timed/2, hardCap/2)
		h.tr.on.Store(true)
		traced = h.runOps(w, warmupOps+len(untraced), minOps/4, timed/2, hardCap/2)
		h.tr.on.Store(false)
	}
	ust, tst := summarize(untraced), summarize(traced)
	res.Attempted += len(untraced) + len(traced)
	res.Failed += ust.failed + tst.failed
	if err := w.finish(h); err != nil {
		h.log("finish: %v", err)
		res.Failed++
		res.Attempted++
	}

	if !cfg.trace {
		endToEndMetrics(res.Metrics, h, w, &setup, ust)
		fmt.Fprintf(out, "%s seed %d: %d set-ups, %d timed ops, calibrated p90 %.2f ms (%d samples beyond it), GOMAXPROCS %d\n",
			cfg.workload, cfg.seed, len(setups), ust.n, ust.calP90, ust.n/10, runtime.GOMAXPROCS(0))
		fmt.Fprintf(out, "  raw op p50 %.2f ms; calibration kernel p50 %.2f ms (iqr %.2f); controls: memlat p50 %.2f ms, alu p50 %.2f ms\n",
			ust.rawP50, ust.calMsP50, ust.calMsIQR, ust.memMsP50, ust.aluMsP50)
		warnNoisy(out, ust)
	} else {
		spans := h.tr.snapshot()
		stages, err := layerMetrics(res.Metrics, h, w, &setup, spans, traced, ust, tst)
		if err != nil {
			return nil, err
		}
		res.stages = stages
		printStages(out, cfg.workload, stages)
		warnNoisy(out, tst)
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, cfg.workload, spans, stages); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0
	printMetrics(out, res.Metrics, cfg.trace)
	return res, nil
}

// endToEndMetrics fills m with the seven end-to-end metrics. It
// releases the harness's staging data and the calibration buffer to
// measure live heap, so nothing can be timed after it.
func endToEndMetrics(m metricSet, h *harness, w workload, setup *setupResult, st opStats) {
	m.set("setup_s", setup.calSeconds(), "s")
	m.set("op_cal_p50_ms", st.calP50, "ms")
	m.set("ops_per_s", st.opsPerS, "1/s")
	m.set("cpu_cal_ms_per_op", st.cpuCalPerOp, "ms")
	m.set("alloc_mb_per_op", st.allocMB, "MB")
	m.set("allocs_per_op", st.allocs, "count")
	w.release()
	h.cal.release()
	m.set("live_heap_mb", liveHeapMB(), "MB")
}

// layerMetrics fills m with every per-layer metric — zero for the
// layers this workload does not exercise — from the set-up stages, the
// traced ops' spans and the workload's layer probes, and returns the
// stage table.
func layerMetrics(m metricSet, h *harness, w workload, setup *setupResult, spans []span, traced []sample, ust, tst opStats) ([]stageRow, error) {
	for _, d := range perLayer {
		m[d.name] = metric{Unit: d.unit}
	}
	ss := &spanSet{spans: spans, self: selfTimes(spans), scale: map[int32]float64{}}
	for i := range traced {
		if traced[i].wall > 0 {
			ss.scale[traced[i].opID] = traced[i].scale
		}
	}
	found := metricSet{}
	setupLayerMetrics(found, setup)
	spanLayerMetrics(found, ss)
	if err := w.probe(h, found); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if full := found["report.load_ms"].Value; full > 0 {
		found.set("ixpd.reload_vs_full_ratio", found["ixpd.reload_ms"].Value/full, "ratio")
	}
	harnessLayerMetrics(found, ust, tst)
	for name, v := range found {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared in layers.go", name)
		}
		m[name] = v
	}
	return ss.stageTable(), nil
}

// warnNoisy flags a run whose calibration kernel itself was unsteady.
func warnNoisy(out io.Writer, st opStats) {
	if st.calMsP50 > 0 && st.calMsIQR/st.calMsP50 > 0.25 {
		fmt.Fprintf(out, "WARNING: calibration kernel iqr/p50 = %.2f > 0.25: the machine was too noisy for this run to be trusted\n",
			st.calMsIQR/st.calMsP50)
	}
}

func printStages(out io.Writer, workload string, rows []stageRow) {
	fmt.Fprintf(out, "stages of %s (per op, traced):\n  %-28s %12s %8s %12s %14s\n",
		workload, "stage", "cal ms", "% of op", "allocs", "bytes")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-28s %12.3f %8.1f %12.0f %14.0f\n", r.Stage, r.CalMs, r.Pct, r.Allocs, r.Bytes)
	}
}

func printMetrics(out io.Writer, m metricSet, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.name, m[d.name].Value, m[d.name].Unit)
	}
}

func main() {
	cfg := config{out: os.Stdout}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: crawl, analyze, serve-warm, serve-cold or reload")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end run")
	flag.StringVar(&cfg.spans, "spans", "", "traced runs: write the recorded spans and stage table to this JSON file")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for datasets (created, emptied of this run's files at exit)")
	aa := flag.Int("aa", 0, "A/A mode: run this many alternating pairs of sets of every workload and compare them against BENCHMARK.json")
	flag.Parse()
	cfg.trace = *trace != 0

	if *aa > 0 {
		os.Exit(runAA(*aa, cfg))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}
