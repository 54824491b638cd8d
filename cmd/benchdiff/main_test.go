package main

import (
	"regexp"
	"strings"
	"testing"
)

func rep(results ...Result) *Report { return &Report{Benchmarks: results} }

func res(name string, nsop float64) Result {
	return Result{Name: name, Pkg: "p", Procs: 1, Metrics: map[string]float64{"ns/op": nsop}}
}

func TestCompare(t *testing.T) {
	guard := regexp.MustCompile("^(SnapshotCodec|Index)")
	oldRep := rep(
		res("SnapshotCodec/binary", 1000),
		res("IndexFromColumns", 2000),
		res("IndexGone", 500),
		res("Unguarded", 10),
		res("UnguardedDropped", 11),
	)
	newRep := rep(
		res("SnapshotCodec/binary", 1300), // +30%
		res("IndexFromColumns", 1900),     // -5%
		res("IndexFresh", 700),
		res("Unguarded", 99999),
		res("UnguardedFresh", 12),
	)
	deltas, onlyOld, onlyNew, removed, added := compare(oldRep, newRep, guard)
	if len(deltas) != 2 {
		t.Fatalf("deltas: %+v", deltas)
	}
	// Sorted worst-first.
	if deltas[0].Key != "p.SnapshotCodec/binary-1" || deltas[0].Ratio < 0.29 || deltas[0].Ratio > 0.31 {
		t.Errorf("worst delta wrong: %+v", deltas[0])
	}
	if deltas[1].Key != "p.IndexFromColumns-1" || deltas[1].Ratio > 0 {
		t.Errorf("improvement delta wrong: %+v", deltas[1])
	}
	if len(onlyOld) != 1 || onlyOld[0] != "p.IndexGone-1" {
		t.Errorf("onlyOld: %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "p.IndexFresh-1" {
		t.Errorf("onlyNew: %v", onlyNew)
	}
	// One-side-only unguarded benchmarks surface as informational
	// added/removed lines instead of vanishing from the report.
	if len(removed) != 1 || removed[0] != "p.UnguardedDropped-1" {
		t.Errorf("removed: %v", removed)
	}
	if len(added) != 1 || added[0] != "p.UnguardedFresh-1" {
		t.Errorf("added: %v", added)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	guard := regexp.MustCompile("Index")
	deltas, _, _, _, _ := compare(rep(res("Index", 0)), rep(res("Index", 100)), guard)
	if len(deltas) != 1 || deltas[0].Ratio != 0 {
		t.Errorf("zero baseline must not divide: %+v", deltas)
	}
}

// TestDefaultFilterGuardsIxpd pins the default gate over the daemon's
// serving and load suites (and that the Index prefix does not
// accidentally swallow them or vice versa).
func TestDefaultFilterGuardsIxpd(t *testing.T) {
	guard := regexp.MustCompile("^(" + strings.Join(guardedSuites, "|") + ")")
	for _, name := range []string{
		"IxpdServe/cold", "IxpdServe/warm", "IxpdServe/etag304", "IxpdBench",
		"IndexFromColumns", "SpanOverhead/off", "LoadSnapshotDir/parallel=1",
	} {
		if !guard.MatchString(name) {
			t.Errorf("default filter misses guarded suite %s", name)
		}
	}
	for _, name := range []string{"LGCrawl", "Xipd", "ServeIxpd"} {
		if guard.MatchString(name) {
			t.Errorf("default filter over-matches %s", name)
		}
	}
}
