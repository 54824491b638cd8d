package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy scale, untraced and traced, on
// a seed the benchmark's own tuning never used, and pins the emitted
// metric names against BENCHMARK.json: every declared name exactly
// once, finite, nothing undeclared, and no failed op.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchmarkSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}} // traced? -> name -> unit
	for traced, list := range map[bool][]boundedMetric{false: spec.EndToEnd, true: spec.PerLayer} {
		for _, bm := range list {
			if !metricName.MatchString(bm.Name) {
				t.Errorf("BENCHMARK.json: bad metric name %q", bm.Name)
			}
			if _, dup := declared[traced][bm.Name]; dup || declared[!traced][bm.Name] != "" {
				t.Errorf("BENCHMARK.json: metric %q declared twice", bm.Name)
			}
			declared[traced][bm.Name] = bm.Unit
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", names, workloadNames)
	}

	workdir := t.TempDir()
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, err := run(config{
				workload: name,
				seed:     20211004,
				seconds:  0.1,
				trace:    traced,
				size:     sizeToy,
				workdir:  workdir,
				spans:    filepath.Join(workdir, "spans.json"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			// Through JSON, as the driver reads it: a duplicate key or a
			// non-finite value cannot survive the round trip unnoticed.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s traced=%v: result does not marshal: %v", name, traced, err)
			}
			var back struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			want := declared[traced]
			for n, m := range back.Metrics {
				unit, ok := want[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: emits %q, which BENCHMARK.json does not declare for this mode", name, traced, n)
				case unit != m.Unit:
					t.Errorf("%s traced=%v: %q has unit %q, BENCHMARK.json says %q", name, traced, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %q is not finite", name, traced, n)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %q = %v, must never be 0", name, n, m.Value)
				}
			}
			for n := range want {
				if _, ok := back.Metrics[n]; !ok {
					t.Errorf("%s traced=%v: declared metric %q was not emitted", name, traced, n)
				}
			}
			if traced && len(res.stages) == 0 {
				t.Errorf("%s: traced run produced no stage table", name)
			}
		}
	}
}
