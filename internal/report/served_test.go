package report

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
)

// indexAnswers reads every accessor of ix, both families, into one
// comparable value: the rankings unbounded, the point lookups at every
// member, every announcing peer and every community value of s, the
// day ix classifies. A panicking accessor — a counts-only day — is an
// answer too, and never equals a materialized index's.
func indexAnswers(ix *analysis.Index, s *collector.Snapshot) (out []any) {
	defer func() {
		if p := recover(); p != nil {
			out = append(out, fmt.Sprint("panic: ", p))
		}
	}()
	reg := asdb.Default()
	var peers []uint32
	var comms []bgp.Community
	for i := range s.Routes {
		peers = append(peers, s.Routes[i].PeerAS())
		comms = append(comms, s.Routes[i].Communities...)
	}
	slices.Sort(peers)
	slices.Sort(comms)
	for _, v6 := range []bool{false, true} {
		a, i := ix.ActionInfoSplit(v6)
		out = append(out, ix.Counts(v6), ix.Usage(v6), ix.Mix(v6), a, i, ix.FlavourActions(v6),
			ix.PerASActionCounts(v6), ix.RouteCommCorrelation(v6), ix.ASesPerActionType(v6),
			ix.OccurrencesPerType(v6), ix.TopActionCommunities(v6, 0), ix.NonMemberTargeting(v6, 0),
			ix.CulpritRanking(v6, 0), ix.CategoryBreakdown(reg, v6),
			ix.HygieneFilterImpact(v6, []int{0, 2, 10}), ix.CommunityCountPercentiles(v6, []float64{0, 50, 90, 100}))
		for _, asn := range slices.Compact(peers) {
			out = append(out, ix.ASActivity(asn, v6))
		}
		for _, c := range slices.Compact(comms) {
			out = append(out, ix.CommunityUsage(c, v6))
		}
	}
	for _, m := range s.Members {
		out = append(out, ix.IsMember(m.ASN), ix.IsMember(m.ASN+1))
	}
	return out
}

// checkServed holds a loaded lab to the days it should serve: each
// IXP's l.Indexes entry is the index of its latest day and answers every
// accessor as NewIndex over that day, materialized, does; and every day
// of its series counts what the day it stands for counts.
func checkServed(t *testing.T, tag string, lab *Lab, served map[string]*collector.Snapshot, days map[string]*collector.Snapshot) {
	t.Helper()
	for _, p := range lab.Profiles {
		want := served[p.IXP]
		ix := lab.Indexes[p.IXP]
		if ix == nil || ix.Snapshot() != chainOf(t, lab, p.IXP).newest().snap || ix.Snapshot().Date != want.Date {
			t.Errorf("%s: %s does not serve the index of its %s day", tag, p.IXP, want.Date)
			continue
		}
		if got, exp := indexAnswers(ix, want), indexAnswers(analysis.NewIndex(want, p.Scheme), want); !reflect.DeepEqual(got, exp) {
			t.Errorf("%s: %s's served index differs from NewIndex of its %s day (last answer %v)", tag, p.IXP, want.Date, got[len(got)-1])
		}
	}
	checkCounts(t, tag, lab, days)
}

// checkCounts holds what a loaded lab publishes to the direct count:
// every day of every series equals analysis.CountDay of the generated
// day it stands for (days, keyed "<ixp> <date>").
func checkCounts(t *testing.T, tag string, lab *Lab, days map[string]*collector.Snapshot) {
	t.Helper()
	for ixp, series := range lab.Series {
		for _, got := range series {
			truth := days[ixp+" "+got.Date]
			if truth == nil {
				t.Errorf("%s: %s publishes %s, a day it was not given", tag, ixp, got.Date)
			} else if want := analysis.CountDay(truth); got != want {
				t.Errorf("%s: %s %s: counts %+v, want %+v", tag, ixp, got.Date, got, want)
			}
		}
	}
}

// byDay keys every day of series "<ixp> <date>", as checkCounts reads it.
func byDay(series map[string][]*collector.Snapshot) map[string]*collector.Snapshot {
	days := map[string]*collector.Snapshot{}
	for ixp, ss := range series {
		for _, s := range ss {
			days[ixp+" "+s.Date] = s
		}
	}
	return days
}

// chainOf returns the fold lab's last Load left for ixp.
func chainOf(t testing.TB, lab *Lab, ixp string) *chain {
	t.Helper()
	for _, c := range lab.loaded.chains {
		if c.ixp == ixp {
			return c
		}
	}
	t.Fatalf("the lab holds no chain of %s", ixp)
	return nil
}

// TestServedDayIsMaterialized pins what Load guarantees whatever its
// fold did: every IXP's l.Indexes entry is a materialized index of the
// day it serves, although every chained day starts counts-only. Each
// case breaks one IXP's chain a different way (the other stays whole)
// so that the served day is not the one the last delta made:
//
//   - the chain's last delta does not extend its base (a mismatch);
//   - a delta is dated before the base it extends, so the base serves
//     though Advance superseded it;
//   - a corrupt delta in the middle forces a re-fold without it;
//   - reloads land a day on a chain tip that was never served, because
//     a later standalone .bin is, then drop that .bin, then land one
//     more day.
func TestServedDayIsMaterialized(t *testing.T) {
	profiles := ixpgen.BigFour()[:2]
	a := profiles[1].IXP // the IXP each case breaks; profiles[0]'s chain stays whole
	o := ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 7}
	setup := func(t *testing.T) (dir string, series map[string][]*collector.Snapshot, days map[string]*collector.Snapshot, served map[string]*collector.Snapshot) {
		dir = t.TempDir()
		series = writeDeltaChain(t, profiles, dir, t.TempDir(), o)
		days, served = byDay(series), map[string]*collector.Snapshot{}
		for ixp, ss := range series {
			served[ixp] = ss[len(ss)-1]
		}
		return dir, series, days, served
	}
	deltaName := func(s *collector.Snapshot) string { return s.IXP + "-" + s.Date + collector.DeltaExt }
	load := func(t *testing.T, dir string, prev *Lab) (*Lab, LoadReport) {
		t.Helper()
		return loadFrom(t, profiles, dir, prev, nil)
	}

	t.Run("last delta mismatches", func(t *testing.T) {
		dir, series, days, served := setup(t)
		// The same day of another seed's chain: right base date, wrong
		// base digest.
		otherDir := t.TempDir()
		other := writeDeltaChain(t, profiles[1:], otherDir, t.TempDir(), ixpgen.TemporalOptions{Seed: 43, Scale: o.Scale, Days: o.Days})
		tip := deltaName(series[a][o.Days-1])
		if deltaName(other[a][o.Days-1]) != tip {
			t.Fatal("the other chain's tip is not the same day")
		}
		mismatch, err := os.ReadFile(filepath.Join(otherDir, tip))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, tip), mismatch, 0o644); err != nil {
			t.Fatal(err)
		}
		served[a] = series[a][o.Days-2]
		lab, rep := load(t, dir, nil)
		if len(rep.Skipped) != 1 || rep.Skipped[0].Op != "apply" {
			t.Fatalf("skipped %+v, want the mismatching tip", rep.Skipped)
		}
		checkServed(t, "mismatch", lab, served, days)
	})

	t.Run("delta dated before its base", func(t *testing.T) {
		dir, series, days, served := setup(t)
		// a's dataset is day 3 as a .bin and one delta on top of it that
		// makes day 4's routes under day 1's date.
		for _, s := range series[a] {
			name := deltaName(s)
			if s == series[a][0] {
				name = s.IXP + "-" + s.Date + collector.CodecBinary.Ext()
			}
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		base := series[a][3]
		if _, err := collector.SaveSnapshot(dir, base, collector.CodecBinary); err != nil {
			t.Fatal(err)
		}
		early := *series[a][4]
		early.Date = series[a][1].Date
		enc, err := collector.NewDeltaEncoder(base)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := enc.Encode(&early)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, deltaName(&early)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		days[a+" "+early.Date] = &early
		served[a] = base
		lab, rep := load(t, dir, nil)
		if len(rep.Skipped) != 0 || rep.Advances != (o.Days-1)+1 || len(lab.Series[a]) != 2 {
			t.Fatalf("report %+v, %d days of %s; want the early day advanced from its base", rep, len(lab.Series[a]), a)
		}
		checkServed(t, "early delta", lab, served, days)
	})

	t.Run("corrupt delta re-folds", func(t *testing.T) {
		dir, series, days, served := setup(t)
		path := filepath.Join(dir, deltaName(series[a][3]))
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(whole[:len(whole)-3:len(whole)-3], 0xff, 0xff, 0xff), 0o644); err != nil {
			t.Fatal(err)
		}
		served[a] = series[a][2]
		lab, rep := load(t, dir, nil)
		if len(rep.Skipped) != o.Days-3 || len(lab.Series[a]) != 3 {
			t.Fatalf("skipped %+v, %d days of %s; want day 3 and its successors skipped", rep.Skipped, len(lab.Series[a]), a)
		}
		checkServed(t, "corrupt", lab, served, days)
	})

	t.Run("reload extends an unserved tip", func(t *testing.T) {
		dir, series, days, served := setup(t)
		stage := t.TempDir()
		// a serves a standalone .bin of its last day over a chain that
		// stops at day 3; days 4 and 5 wait to land as deltas.
		move := func(name, from, to string) {
			t.Helper()
			if err := os.Rename(filepath.Join(from, name), filepath.Join(to, name)); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range []int{4, 5, 6} {
			move(deltaName(series[a][d]), dir, stage)
		}
		last := series[a][o.Days-1]
		bin, err := collector.SaveSnapshot(dir, last, collector.CodecBinary)
		if err != nil {
			t.Fatal(err)
		}

		lab, rep := load(t, dir, nil)
		if len(rep.Skipped) != 0 || len(lab.Series[a]) != 5 {
			t.Fatalf("first load: %+v, %d days of %s", rep, len(lab.Series[a]), a)
		}
		checkServed(t, "standalone .bin served", lab, served, days)

		// The chain's tip was released when the first load served the
		// .bin, so the landed day re-folds a from its head.
		move(deltaName(series[a][4]), stage, dir)
		prev := lab
		lab, rep = load(t, dir, prev)
		if rep.Advances != 4 || rep.Decoded != 1 || rep.Rebuilt != 5 || len(rep.Skipped) != 0 {
			t.Fatalf("landing day 4 under the served .bin: %+v", rep)
		}
		checkServed(t, "day 4 landed", lab, served, days)
		checkServed(t, "the predecessor after day 4 landed", prev, served, days)

		if err := os.Remove(bin); err != nil {
			t.Fatal(err)
		}
		served[a] = series[a][4]
		lab, rep = load(t, dir, lab)
		if rep.Rebuilt == 0 || len(lab.Series[a]) != 5 {
			t.Fatalf("dropping the .bin: %+v, %d days of %s", rep, len(lab.Series[a]), a)
		}
		checkServed(t, ".bin dropped", lab, served, days)

		move(deltaName(series[a][5]), stage, dir)
		served[a] = series[a][5]
		lab, rep = load(t, dir, lab)
		if rep.Advances != 1 || rep.Advanced != 1 {
			t.Fatalf("landing day 5 on the served tip: %+v", rep)
		}
		checkServed(t, "day 5 landed", lab, served, days)
	})
}

// TestLoadedLabHeap pins what a loaded dataset keeps resident — what an
// ixpd generation holds between reloads: the big four's 28-day chains
// at scale 0.004, the analyze benchmark's IXPs, days and scale, loaded
// and collected. Each IXP serves one materialized day; the other 27 are
// counts-only, holding their header and scalars, and the chain state
// the tip owns: 1.98 MB measured. While every chained day kept its
// ranking maps, histogram and member set, and the chain state a 24-byte
// class per distinct community, the same lab held 5.16 MB.
func TestLoadedLabHeap(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap accounting under -short or the race detector")
	}
	profiles := ixpgen.BigFour()
	dir := t.TempDir()
	writeDeltaChain(t, profiles, dir, t.TempDir(), ixpgen.TemporalOptions{Seed: 42, Scale: 0.004, Days: 28})
	files, err := collector.ListDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lab := NewLabShell(profiles, 42, 0.004, 2)
	if rep := lab.Load(dir, files, nil); len(rep.Skipped) != 0 {
		t.Fatal(&rep.Skipped[0])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(lab)
	held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("a loaded big-four × 28-day lab holds %.2f MB", held/1e6)
	const ceiling = 2.6e6
	if held > ceiling {
		t.Errorf("a loaded big-four × 28-day lab holds %.2f MB, ceiling %.1f MB", held/1e6, ceiling/1e6)
	}
}
