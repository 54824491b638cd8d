// Command benchdiff compares two archived benchmark reports
// (BENCH_<yyyymmdd>.json, as written by `make bench` via benchjson)
// and fails when a guarded suite regressed: any benchmark whose
// ns/op grew by more than -threshold (default 20%) exits non-zero.
// `make check` runs it over the two newest archives, so a codec or
// index slowdown fails the pre-PR gate instead of landing silently.
//
// Usage:
//
//	benchdiff                    # two newest BENCH_*.json in -dir
//	benchdiff NEW.json           # baseline = newest older file in its dir
//	benchdiff OLD.json NEW.json  # explicit pair
//
// Only benchmarks matching -filter are guarded (default: the
// snapshot-codec, delta-codec, index and dataset-load suites, the
// span-overhead tiers, and the ixpd serving/load suites — the repo's
// perf-critical paths, the tracing zero-cost contract, and the
// daemon's three-tier serving pipeline). Benchmarks present on one
// side only are reported but never fail the run — machines and dates
// differ, the gate is for regressions in what both runs measured. Unguarded
// benchmarks appearing or disappearing between the runs are listed
// too, as informational added/removed lines, so a renamed or dropped
// suite is visible instead of silently leaving the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Result and Report mirror cmd/benchjson's schema.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type Report struct {
	Date       string   `json:"date"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Delta is one guarded benchmark's comparison.
type Delta struct {
	Key      string
	Old, New float64 // ns/op
	Ratio    float64 // (new-old)/old
}

// guardedSuites are the benchmark name prefixes the default -filter
// gates: regressions here fail `make check`.
var guardedSuites = []string{
	"SnapshotCodec", "SnapshotStream", "SnapshotDelta",
	"SeriesAdvance", "SeriesFullRebuild", "Index", "LoadSnapshotDir",
	"SpanOverhead", "IxpdServe", "IxpdBench",
}

func main() {
	dir := flag.String("dir", ".", "directory scanned for BENCH_*.json when files are not given")
	threshold := flag.Float64("threshold", 0.20, "maximum tolerated ns/op growth (0.20 = +20%)")
	filter := flag.String("filter", "^("+strings.Join(guardedSuites, "|")+")",
		"regexp selecting the guarded benchmarks (matched against the name without the Benchmark prefix)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchdiff [flags] [OLD.json] [NEW.json]\n\nguarded suites (default -filter):\n")
		for _, s := range guardedSuites {
			fmt.Fprintf(flag.CommandLine.Output(), "  %s\n", s)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	re, err := regexp.Compile(*filter)
	if err != nil {
		fatal(err)
	}

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		archives, err := findArchives(*dir)
		if err != nil {
			fatal(err)
		}
		if len(archives) < 2 {
			fmt.Printf("benchdiff: %d archive(s) in %s — nothing to compare\n", len(archives), *dir)
			return
		}
		oldPath, newPath = archives[len(archives)-2], archives[len(archives)-1]
	case 1:
		newPath = flag.Arg(0)
		archives, err := findArchives(filepath.Dir(newPath))
		if err != nil {
			fatal(err)
		}
		for _, a := range archives {
			if filepath.Base(a) < filepath.Base(newPath) {
				oldPath = a
			}
		}
		if oldPath == "" {
			fmt.Printf("benchdiff: no archive older than %s — nothing to compare\n", newPath)
			return
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fatal(fmt.Errorf("at most two report files expected"))
	}

	oldRep, err := readReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: %s (%s) vs %s (%s)\n", oldPath, oldRep.Date, newPath, newRep.Date)

	deltas, onlyOld, onlyNew, removed, added := compare(oldRep, newRep, re)
	for _, k := range onlyOld {
		fmt.Printf("  gone:    %s\n", k)
	}
	for _, k := range onlyNew {
		fmt.Printf("  new:     %s\n", k)
	}
	for _, k := range removed {
		fmt.Printf("  removed: %s (unguarded)\n", k)
	}
	for _, k := range added {
		fmt.Printf("  added:   %s (unguarded)\n", k)
	}
	failed := false
	for _, d := range deltas {
		mark := " "
		if d.Ratio > *threshold {
			mark = "✗"
			failed = true
		} else if d.Ratio < -*threshold {
			mark = "✓"
		}
		fmt.Printf("  %s %-56s %12.0f → %12.0f ns/op  %+6.1f%%\n", mark, d.Key, d.Old, d.New, 100*d.Ratio)
	}
	if failed {
		fmt.Printf("benchdiff: ns/op regression over %.0f%% in guarded suites\n", 100**threshold)
		os.Exit(1)
	}
}

// findArchives returns dir's BENCH_*.json paths sorted by name —
// the yyyymmdd stamp makes lexical order chronological.
func findArchives(dir string) ([]string, error) {
	archives, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Slice(archives, func(i, j int) bool {
		return filepath.Base(archives[i]) < filepath.Base(archives[j])
	})
	return archives, nil
}

func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(buf, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// key identifies a benchmark across runs.
func key(r Result) string {
	return fmt.Sprintf("%s.%s-%d", r.Pkg, r.Name, r.Procs)
}

// compare pairs the guarded benchmarks of both reports by key and
// computes their ns/op deltas, plus the guarded keys present on one
// side only (gone/new) and the unguarded one-side-only keys
// (removed/added) — informational, never failing.
func compare(oldRep, newRep *Report, guarded *regexp.Regexp) (deltas []Delta, onlyOld, onlyNew, removed, added []string) {
	olds := map[string]float64{}
	oldKeys := map[string]bool{}
	for _, r := range oldRep.Benchmarks {
		k := key(r)
		oldKeys[k] = true
		if guarded.MatchString(r.Name) {
			olds[k] = r.Metrics["ns/op"]
		}
	}
	seen := map[string]bool{}
	newKeys := map[string]bool{}
	for _, r := range newRep.Benchmarks {
		k := key(r)
		newKeys[k] = true
		if !guarded.MatchString(r.Name) {
			if !oldKeys[k] {
				added = append(added, k)
			}
			continue
		}
		seen[k] = true
		old, ok := olds[k]
		if !ok {
			onlyNew = append(onlyNew, k)
			continue
		}
		d := Delta{Key: k, Old: old, New: r.Metrics["ns/op"]}
		if old > 0 {
			d.Ratio = (d.New - d.Old) / d.Old
		}
		deltas = append(deltas, d)
	}
	for _, r := range oldRep.Benchmarks {
		if k := key(r); !guarded.MatchString(r.Name) && !newKeys[k] {
			removed = append(removed, k)
		}
	}
	for k := range olds {
		if !seen[k] {
			onlyOld = append(onlyOld, k)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Ratio > deltas[j].Ratio })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	sort.Strings(removed)
	sort.Strings(added)
	return deltas, onlyOld, onlyNew, removed, added
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
