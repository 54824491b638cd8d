package ixpgen

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/netutil"
)

func collectSeries(t *testing.T, ixp string, o TemporalOptions, churn float64) []*collector.Snapshot {
	t.Helper()
	p := ProfileByName(ixp)
	if p == nil {
		t.Fatalf("no profile %q", ixp)
	}
	var days []*collector.Snapshot
	err := EvolveSeries(*p, o, churn, func(day int, s *collector.Snapshot) error {
		if day != len(days) {
			t.Fatalf("days out of order: got %d want %d", day, len(days))
		}
		days = append(days, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return days
}

func routeKeys(s *collector.Snapshot) map[string]bool {
	keys := make(map[string]bool, len(s.Routes))
	for i := range s.Routes {
		r := &s.Routes[i]
		keys[r.Prefix.String()+"|"+r.NextHop.String()] = true
	}
	return keys
}

func TestEvolveSeriesShape(t *testing.T) {
	o := TemporalOptions{
		Days:       16,
		Seed:       7,
		Scale:      0.02,
		ValleyDays: []int{11},
	}
	days := collectSeries(t, "LINX", o, 0.03)
	if len(days) != o.Days {
		t.Fatalf("got %d days, want %d", len(days), o.Days)
	}
	for d, s := range days {
		wantDate := time.Date(2021, 7, 19+d, 0, 0, 0, 0, time.UTC).Format("2006-01-02")
		if s.Date != wantDate {
			t.Errorf("day %d: date %q, want %q", d, s.Date, wantDate)
		}
		if len(s.Routes) == 0 || len(s.Members) == 0 {
			t.Fatalf("day %d: empty snapshot", d)
		}
	}

	// Adjacent healthy days overlap almost completely — the redundancy
	// the delta codec exists to exploit.
	prev := routeKeys(days[0])
	for d := 1; d < len(days); d++ {
		if d == 11 || d == 12 { // valley day and its recovery jump
			prev = routeKeys(days[d])
			continue
		}
		cur := routeKeys(days[d])
		shared := 0
		for k := range cur {
			if prev[k] {
				shared++
			}
		}
		if frac := float64(shared) / float64(len(cur)); frac < 0.9 {
			t.Errorf("day %d: only %.2f of routes shared with previous day", d, frac)
		}
		prev = cur
	}

	// Weekly churn: day 7 swaps one member for a joiner in the evolve
	// ASN range, keeping the count steady.
	if got, want := len(days[7].Members), len(days[6].Members); got != want {
		t.Errorf("day 7: member count %d, want %d (swap, not growth)", got, want)
	}
	joiner := days[7].Members[len(days[7].Members)-1]
	if joiner.ASN < evolveJoinerBase || joiner.ASN >= 100000 {
		t.Errorf("day 7 joiner ASN %d outside evolve range", joiner.ASN)
	}
	goneASN := days[6].Members[len(days[6].Members)-1].ASN
	for i := range days[7].Routes {
		if days[7].Routes[i].PeerAS() == goneASN {
			t.Fatalf("day 7 still carries a route from departed AS%d", goneASN)
		}
	}

	// Valley day 11 collapses toward valleyDepth of day 10; day 12
	// recovers to the healthy line rather than evolving the valley.
	ratio := float64(len(days[11].Routes)) / float64(len(days[10].Routes))
	if ratio < 0.4 || ratio > 0.8 {
		t.Errorf("valley day ratio %.2f, want near default depth 0.62", ratio)
	}
	rec := float64(len(days[12].Routes)) / float64(len(days[10].Routes))
	if rec < 0.9 {
		t.Errorf("post-valley day recovered only to %.2f of the healthy line", rec)
	}
}

func TestEvolveSeriesDeterministic(t *testing.T) {
	o := TemporalOptions{Days: 9, Seed: 11, Scale: 0.02}
	a := collectSeries(t, "AMS-IX", o, 0.05)
	b := collectSeries(t, "AMS-IX", o, 0.05)
	for d := range a {
		if !reflect.DeepEqual(a[d], b[d]) {
			t.Fatalf("day %d differs across identical runs", d)
		}
	}
	c := collectSeries(t, "AMS-IX", TemporalOptions{Days: 9, Seed: 12, Scale: 0.02}, 0.05)
	same := true
	for d := 1; d < len(a); d++ {
		if !reflect.DeepEqual(a[d].Routes, c[d].Routes) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical evolved series")
	}
}

// TestEvolveSeriesPassesImportFilter: every route of every evolved day
// over the big four is one the route server's import policy accepts on
// its prefix — no bogon space, and inside the length window unless it
// is a blackhole host route. A withdrawn blackhole /32 is answered
// under a fresh /24, not re-announced without its blackhole tag; the
// 30 % churn makes sure some are withdrawn at this scale.
func TestEvolveSeriesPassesImportFilter(t *testing.T) {
	o := TemporalOptions{Days: 10, Seed: 42, Scale: 0.004}
	for _, p := range BigFour() {
		for d, s := range collectSeries(t, p.IXP, o, 0.3) {
			for i := range s.Routes {
				r := &s.Routes[i]
				if netutil.IsBogonPrefix(r.Prefix) {
					t.Fatalf("%s day %d: %s from AS%d is a bogon", p.IXP, d, r.Prefix, r.PeerAS())
				}
				if !bgp.HasCommunity(r.Communities, bgp.BlackholeWellKnown) {
					if err := netutil.CheckPrefixBounds(r.Prefix); err != nil {
						t.Fatalf("%s day %d: %v", p.IXP, d, err)
					}
				}
			}
		}
	}
}

// TestEvolveSeriesOneRoutePerPrefixAndPeer: a withdrawal's answer
// re-uses the withdrawn prefix under another route's peer, so it must
// pick a peer that does not hold the prefix already. Every day is in
// Normalize order with no (prefix, peer) twice, and the churn did
// announce routes day 0 never had.
func TestEvolveSeriesOneRoutePerPrefixAndPeer(t *testing.T) {
	o := TemporalOptions{Days: 6, Seed: 3, Scale: 0.02}
	days := collectSeries(t, "LINX", o, 0.06)
	for d, s := range days {
		sorted := &collector.Snapshot{Routes: slices.Clone(s.Routes)}
		sorted.Normalize()
		if !reflect.DeepEqual(sorted.Routes, s.Routes) {
			t.Fatalf("day %d: routes not in Normalize order", d)
		}
		for i := 1; i < len(s.Routes); i++ {
			if a, b := &s.Routes[i-1], &s.Routes[i]; a.Prefix == b.Prefix && a.PeerAS() == b.PeerAS() {
				t.Fatalf("day %d: %s from AS%d twice", d, b.Prefix, b.PeerAS())
			}
		}
	}
	day0 := routeKeys(days[0])
	fresh := 0
	for k := range routeKeys(days[5]) {
		if !day0[k] {
			fresh++
		}
	}
	if fresh == 0 {
		t.Error("no new announcement after 5 evolved days at 6% churn")
	}
}

// TestEvolveSeriesAppendixAShape holds the series to the paper's
// Appendix A: daily variation under 4 % over the first week (Table 3)
// and at most the paper's 18.03 % over twelve weekly representatives
// (Table 4), for every quantity and family. A withdrawal that leaked its
// prefix grew DE-CIX's v6 prefixes from 262 to 480 in twelve weeks, so
// each family's prefix count must also end within 10 % of where it
// started, at every big-four IXP.
func TestEvolveSeriesAppendixAShape(t *testing.T) {
	for _, ixp := range []string{"DE-CIX", "LINX"} {
		var days []analysis.DayCounts
		for _, s := range collectSeries(t, ixp, TemporalOptions{Days: 84, Seed: 42, Scale: 0.02}, 0) {
			days = append(days, analysis.CountDay(s))
		}
		for _, v6 := range []bool{false, true} {
			if d := analysis.Stability(days[:7], v6).MaxDiffPct(); d >= 4 {
				t.Errorf("%s v6=%v: Table 3 variation %.2f%%, want < 4%%", ixp, v6, d)
			}
			if d := analysis.Stability(analysis.WeeklyRepresentatives(days), v6).MaxDiffPct(); d > 18.03 {
				t.Errorf("%s v6=%v: Table 4 variation %.2f%%, want ≤ 18.03%%", ixp, v6, d)
			}
		}
	}
	for _, p := range BigFour() {
		days := collectSeries(t, p.IXP, TemporalOptions{Days: 84, Seed: 42, Scale: 0.004}, 0)
		for _, v6 := range []bool{false, true} {
			first := analysis.CountDay(days[0]).Family(v6).Prefixes
			last := analysis.CountDay(days[83]).Family(v6).Prefixes
			if math.Abs(float64(last-first)) > 0.1*float64(first) {
				t.Errorf("%s v6=%v: %d prefixes on day 83, %d on day 0 (want within 10%%)", p.IXP, v6, last, first)
			}
		}
	}
}
