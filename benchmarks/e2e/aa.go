package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// A/A mode: the instrument measured against itself. N alternating
// pairs of runs (A B, B A, A B, …) of this same binary per workload,
// each pair on its own seed; set A's and set B's medians must agree
// within each metric's bound, and the quartile spread over a set must
// stay inside it too. This is the table that justifies the bounds in
// BENCHMARK.json.

// benchmarkSpec is the part of BENCHMARK.json A/A mode reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartileSpread is the distance between the first and third quartile
// as Python's statistics.quantiles(vals, n=4) defines them (the
// "exclusive" method) over the median: the spread the driver gates on.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// runSelf runs this binary once as a child and parses its last line.
func runSelf(workload string, seed int64, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-workdir", cfg.workdir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// runAA returns the process exit code.
func runAA(pairs int, cfg config) int {
	spec, err := loadBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: -aa needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	miss := false
	fmt.Printf("A/A: %d alternating pairs per workload, %g s per run\n", pairs, cfg.seconds)
	fmt.Printf("%-11s %-18s %12s %12s %8s %8s %8s %7s\n",
		"workload", "metric", "median A", "median B", "gap", "spreadA", "spreadB", "bound")
	for _, wl := range names {
		sets := [2]map[string][]float64{{}, {}}
		for p := 0; p < pairs; p++ {
			order := [2]int{p % 2, 1 - p%2} // alternate which set runs first
			for _, set := range order {
				res, err := runSelf(wl, cfg.seed+int64(p), cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "e2e:", err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "e2e: %s seed %d: %d of %d ops failed\n", wl, cfg.seed+int64(p), res.Failed, res.Attempted)
					miss = true
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, bm := range spec.EndToEnd {
			a, b := sets[0][bm.Name], sets[1][bm.Name]
			ma, mb := median(a), median(b)
			gap, spreadA, spreadB := 0.0, quartileSpread(a), quartileSpread(b)
			if ma != 0 {
				gap = (mb - ma) / ma
				if gap < 0 {
					gap = -gap
				}
			}
			verdict := ""
			if gap > bm.Bound || max(spreadA, spreadB) > bm.Bound {
				verdict = "  MISS"
				miss = true
			}
			fmt.Printf("%-11s %-18s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				wl, bm.Name, ma, mb, 100*gap, 100*spreadA, 100*spreadB, 100*bm.Bound, verdict)
		}
		// Every run made, so a reader can recompute the table.
		for _, bm := range spec.EndToEnd {
			fmt.Printf("  runs %-11s %-18s A %.5g  B %.5g\n", wl, bm.Name, sets[0][bm.Name], sets[1][bm.Name])
		}
	}
	if miss {
		return 1
	}
	return 0
}
