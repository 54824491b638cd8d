package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
)

func testDay(ixp, date string, prefixes ...string) *collector.Snapshot {
	s := &collector.Snapshot{
		IXP: ixp, Date: date,
		Members: []collector.Member{{ASN: 64500, Name: "m", IPv4: true}},
	}
	for _, p := range prefixes {
		s.Routes = append(s.Routes, bgp.Route{
			Prefix:  netip.MustParsePrefix(p),
			NextHop: netip.MustParseAddr("192.0.2.1"),
			ASPath:  bgp.ASPath{64500},
		})
	}
	s.Normalize()
	return s
}

// TestCheckpointFlagIsHonoured: -checkpoint names where progress goes
// for every crawl, a strict one included; without it only -partial and
// -resume checkpoint, into -out.
func TestCheckpointFlagIsHonoured(t *testing.T) {
	def := filepath.Join("out", "checkpoint-2021-10-04.json")
	for _, tc := range []struct {
		flag      string
		defaulted bool
		want      string
	}{
		{flag: "ck.json", defaulted: false, want: "ck.json"},
		{flag: "ck.json", defaulted: true, want: "ck.json"},
		{defaulted: true, want: def},
		{defaulted: false, want: ""},
	} {
		if got := checkpointPath(tc.flag, "out", "2021-10-04", tc.defaulted); got != tc.want {
			t.Errorf("checkpointPath(%q, partial|resume=%v) = %q, want %q", tc.flag, tc.defaulted, got, tc.want)
		}
	}
}

// TestWritersStayInsideOut: the IXP name in a snapshot is whatever the
// looking glass answered. Whatever it is, every writer puts its file
// directly inside -out, and a chain's deltas are spelled like its base.
func TestWritersStayInsideOut(t *testing.T) {
	for _, ixp := range []string{"../../x", "A B", "a/b", ".."} {
		// Nested, so a name that escapes lands in the test's own tree.
		root := t.TempDir()
		dir := filepath.Join(root, "a", "b", "out")
		base, err := collector.Append(dir, testDay(ixp, "2021-10-04", "203.0.113.0/24"), t.Logf)
		if err != nil {
			t.Fatalf("%q: base: %v", ixp, err)
		}
		delta, err := collector.Append(dir, testDay(ixp, "2021-10-05", "203.0.113.0/24", "198.51.100.0/24"), t.Logf)
		if err != nil {
			t.Fatalf("%q: delta: %v", ixp, err)
		}
		stem := strings.TrimSuffix(filepath.Base(base), "-2021-10-04.bin")
		for _, c := range []struct{ path, want string }{
			{base, stem + "-2021-10-04.bin"},
			{delta, stem + "-2021-10-05.delta"},
		} {
			if filepath.Dir(c.path) != dir || filepath.Base(c.path) != c.want {
				t.Errorf("%q: wrote %s, want %s", ixp, c.path, filepath.Join(dir, c.want))
			}
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && filepath.Dir(path) != dir {
				t.Errorf("%q: file outside -out: %s", ixp, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// appendDays appends each day to dir as collect does and returns the
// files written.
func appendDays(t *testing.T, dir string, days ...*collector.Snapshot) []string {
	t.Helper()
	var paths []string
	for _, d := range days {
		path, err := collector.Append(dir, d, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// serves loads dir as the loader does and fails unless ixp's served day
// is date, reached by Series days in all. The loader's Materialize
// reference, which folds the same directory through the DeltaApplier,
// must serve the same: equal Series, Digest and skips.
func serves(t *testing.T, dir, ixp, date string, days int) report.LoadReport {
	t.Helper()
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX"), *ixpgen.ProfileByName("LINX")}
	files, err := collector.ListDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	lab, ref := report.NewLabShell(profiles, 42, 0.002, 1), report.NewLabShell(profiles, 42, 0.002, 1)
	ref.Materialize = true
	rep, refRep := lab.Load(dir, files, nil), ref.Load(dir, files, nil)
	if ix := lab.Indexes[ixp]; ix == nil || ix.Snapshot().Date != date || len(lab.Series[ixp]) != days {
		t.Fatalf("%s: the load serves %d days (index %v), want %d up to %s; skipped %v", ixp, len(lab.Series[ixp]), ix != nil, days, date, rep.Skipped)
	}
	if !reflect.DeepEqual(lab.Series, ref.Series) || lab.Digest != ref.Digest || !sameSkips(rep.Skipped, refRep.Skipped) {
		t.Fatalf("%s: the reference serves %d days, the load %d; skipped %v by the reference, %v by the load",
			ixp, len(ref.Series[ixp]), len(lab.Series[ixp]), refRep.Skipped, rep.Skipped)
	}
	return rep
}

// sameSkips reports whether two loads skipped the same files the same
// way and for the same reason.
func sameSkips(a, b []report.Skipped) bool {
	return slices.EqualFunc(a, b, func(x, y report.Skipped) bool { return x.Error() == y.Error() })
}

// TestCollectKeepsItsCrawl: a finished crawl is written whatever else
// -out holds. Another IXP's delta cut short is skipped, as the loader
// skips it, and the crawled day extends its own chain.
func TestCollectKeepsItsCrawl(t *testing.T) {
	dir := t.TempDir()
	appendDays(t, dir,
		testDay("DE-CIX", "2021-10-04", "203.0.113.0/24"),
		testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24"))
	linx := appendDays(t, dir,
		testDay("LINX", "2021-10-04", "192.0.2.0/24"),
		testDay("LINX", "2021-10-05", "192.0.2.0/24", "198.51.100.0/24"))
	whole, err := os.ReadFile(linx[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(linx[1], whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	next := testDay("DE-CIX", "2021-10-06", "203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24")
	path, err := collector.Append(dir, next, t.Logf)
	if err != nil {
		t.Fatalf("saving DE-CIX's next day: %v", err)
	}
	if !strings.HasSuffix(path, "DE-CIX-2021-10-06"+collector.DeltaExt) {
		t.Errorf("wrote %s, want DE-CIX's next delta", path)
	}
	if rep := serves(t, dir, "DE-CIX", next.Date, 3); len(rep.Skipped) != 1 || rep.Skipped[0].File != filepath.Base(linx[1]) {
		t.Errorf("skipped %v, want LINX's cut delta alone", rep.Skipped)
	}
}

// TestCollectStartsAChainWhenItsOwnDoesNotReplay: the IXP's newest
// delta opens — its seal holds — but its ops are corrupt, so its chain
// does not replay. The crawled day heads a new chain as a .bin, and the
// loader serves it as the newest day.
func TestCollectStartsAChainWhenItsOwnDoesNotReplay(t *testing.T) {
	dir := t.TempDir()
	paths := appendDays(t, dir,
		testDay("DE-CIX", "2021-10-04", "203.0.113.0/24", "198.51.100.0/24"),
		testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24"),
		testDay("DE-CIX", "2021-10-06", "203.0.113.0/24", "192.0.2.0/24"))
	whole, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	ops := len(whole) - sha256.Size
	corrupt := append(whole[:ops-3:ops-3], 0xff, 0xff, 0xff)
	seal := sha256.Sum256(corrupt)
	if err := os.WriteFile(paths[2], append(corrupt, seal[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := collector.OpenDelta(paths[2]); err != nil {
		t.Fatalf("the corrupt delta does not open: %v", err)
	}
	next := testDay("DE-CIX", "2021-10-07", "203.0.113.0/24")
	path, err := collector.Append(dir, next, t.Logf)
	if err != nil {
		t.Fatalf("saving DE-CIX's next day: %v", err)
	}
	if !strings.HasSuffix(path, "DE-CIX-2021-10-07.bin") {
		t.Errorf("wrote %s, want a .bin heading a new chain", path)
	}
	serves(t, dir, "DE-CIX", next.Date, 3)
}

// TestCollectReplacesADayOnACutBase: the chain head's route block is
// cut short (its header still reads), so 2021-10-05's delta no longer
// has a base: it names the whole file's digest. Collecting 2021-10-05
// again replays no chain, sets the old delta aside and writes the day as
// a .bin under its own name, which the loader serves next to the cut
// head it skips.
func TestCollectReplacesADayOnACutBase(t *testing.T) {
	dir := t.TempDir()
	paths := appendDays(t, dir,
		testDay("DE-CIX", "2021-10-04", "203.0.113.0/24"),
		testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24"))
	whole, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], whole[:len(whole)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	again := testDay("DE-CIX", "2021-10-05", "192.0.2.0/24")
	if got := appendDays(t, dir, again)[0]; got != strings.TrimSuffix(paths[1], collector.DeltaExt)+".bin" {
		t.Errorf("wrote %s, want the day as a .bin under its own name", got)
	}
	if _, err := os.Stat(paths[1] + ".replaced"); err != nil {
		t.Errorf("the old delta is not set aside: %v", err)
	}
	if rep := serves(t, dir, "DE-CIX", again.Date, 1); len(rep.Skipped) != 1 || rep.Skipped[0].File != filepath.Base(paths[0]) {
		t.Errorf("skipped %v, want the cut head alone", rep.Skipped)
	}
}

// servedSeries loads dir as the loader does and returns DE-CIX's
// served day and its series.
func servedSeries(t *testing.T, dir string) (*collector.Snapshot, []analysis.DayCounts) {
	t.Helper()
	lab := report.NewLabShell([]ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}, 42, 0.002, 1)
	files, err := collector.ListDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep := lab.Load(dir, files, nil); len(rep.Skipped) > 0 {
		t.Fatalf("the load skipped %v", rep.Skipped)
	}
	ix := lab.Indexes["DE-CIX"]
	if ix == nil {
		t.Fatal("the load serves no DE-CIX day")
	}
	return ix.Snapshot(), lab.Series["DE-CIX"]
}

// wantSeries fails unless got counts exactly the days want.
func wantSeries(t *testing.T, what string, got []analysis.DayCounts, want ...*collector.Snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: the load serves %d days, want %d", what, len(got), len(want))
	}
	for k, s := range want {
		if c := analysis.CountDay(s); got[k] != c {
			t.Errorf("%s: day %d counts %+v, want %+v", what, k, got[k], c)
		}
	}
}

// TestCollectReplacesAndBackfillsDays: a day -out already holds is
// collected again — a partial day finished by collect -resume, a chain
// head or a day inside the chain re-crawled — or a missed day is
// back-filled. Every crawl lands,
// and the loader serves it with every other day as it was.
func TestCollectReplacesAndBackfillsDays(t *testing.T) {
	dir := t.TempDir()
	day0 := testDay("DE-CIX", "2021-10-04", "203.0.113.0/24")
	partial := testDay("DE-CIX", "2021-10-05", "203.0.113.0/24")
	partial.Partial = true
	partial.MemberErrors = []collector.MemberError{{ASN: 64501, Stage: collector.StageRoutes, Err: "timeout", Attempts: 2}}
	day1 := testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24")
	paths := appendDays(t, dir, day0, partial)

	// collect -resume finishes the partial day: its delta is written
	// again against the same base.
	if got := appendDays(t, dir, day1); got[0] != paths[1] {
		t.Errorf("the complete day went to %s, want over the partial day's %s", got[0], paths[1])
	}
	served, series := servedSeries(t, dir)
	if served.Date != day1.Date || served.Partial {
		t.Errorf("serves %s (partial %v), want the complete %s", served.Date, served.Partial, day1.Date)
	}
	wantSeries(t, "after the resume", series, day0, day1)

	// A re-crawled chain head replaces its .bin, and the delta chained
	// onto it is encoded again onto the new head.
	head := testDay("DE-CIX", "2021-10-04", "203.0.113.0/24", "198.51.100.0/24")
	if got := appendDays(t, dir, head); got[0] != paths[0] {
		t.Errorf("the re-crawled head went to %s, want over %s", got[0], paths[0])
	}
	_, series = servedSeries(t, dir)
	wantSeries(t, "after the re-crawled head", series, head, day1)

	// A missed day, back-filled, is a chain of its own.
	day3 := testDay("DE-CIX", "2021-10-07", "203.0.113.0/24")
	day2 := testDay("DE-CIX", "2021-10-06", "192.0.2.0/24")
	got := appendDays(t, dir, day3, day2)
	if !strings.HasSuffix(got[0], "2021-10-07"+collector.DeltaExt) || !strings.HasSuffix(got[1], "2021-10-06.bin") {
		t.Errorf("wrote %v, want day 3's delta and day 2's .bin", got)
	}
	served, series = servedSeries(t, dir)
	if served.Date != day3.Date {
		t.Errorf("serves %s, want %s", served.Date, day3.Date)
	}
	wantSeries(t, "after the back-fill", series, head, day1, day2, day3)

	// A day inside a chain, re-crawled: its delta and the one chained
	// onto it are both written again.
	again := testDay("DE-CIX", "2021-10-05", "198.51.100.0/24")
	appendDays(t, dir, again)
	_, series = servedSeries(t, dir)
	wantSeries(t, "after the re-crawled middle day", series, head, again, day2, day3)
}

// TestCollectChainsOntoTheServedDuplicate: -out holds two deltas of
// 2021-10-05 against the same base, the one collect wrote and a
// hand-kept copy of another crawl of that day, named so that it lists
// after it (both names list after an upper-case IXP's). The loader
// serves the first listed and skips the other, so the next crawl must
// be encoded against the first: a load then serves it.
func TestCollectChainsOntoTheServedDuplicate(t *testing.T) {
	day0 := testDay("DE-CIX", "2021-10-04", "203.0.113.0/24")
	dayA := testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24")
	dayB := testDay("DE-CIX", "2021-10-05", "192.0.2.0/24")
	other := t.TempDir()
	copied, err := os.ReadFile(appendDays(t, other, day0, dayB)[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"aa-copy.delta"}, {"zz-copy.delta"}, {"aa-copy.delta", "zz-copy.delta"}} {
		dir := t.TempDir()
		appendDays(t, dir, day0, dayA)
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), copied, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		next := testDay("DE-CIX", "2021-10-06", "203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24")
		appendDays(t, dir, next)
		serves(t, dir, "DE-CIX", next.Date, 3)
	}
}

// TestNamesDoNotDecideTheServedDay: one directory built twice — a base,
// collect's delta of 2021-10-05 and a copy of another crawl of that day
// on the same base — the copy named to list before collect's delta in
// one and after it in the other. Both serve the same day under the same
// digest, report the other file of the day as shadowed by the one that
// serves, and chain the next crawl onto the file that serves.
func TestNamesDoNotDecideTheServedDay(t *testing.T) {
	day0 := testDay("DE-CIX", "2021-10-04", "203.0.113.0/24")
	dayA := testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24")
	dayB := testDay("DE-CIX", "2021-10-05", "192.0.2.0/24")
	copied, err := os.ReadFile(appendDays(t, t.TempDir(), day0, dayB)[1])
	if err != nil {
		t.Fatal(err)
	}
	var digests [][sha256.Size]byte
	var tips []string
	for _, name := range []string{"A-copy.delta", "zz-copy.delta"} {
		dir := t.TempDir()
		own := filepath.Base(appendDays(t, dir, day0, dayA)[1])
		if err := os.WriteFile(filepath.Join(dir, name), copied, 0o644); err != nil {
			t.Fatal(err)
		}
		lab := report.NewLabShell([]ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}, 42, 0.002, 1)
		if err := lab.LoadSnapshotDir(dir); err == nil {
			t.Fatalf("%s: the load reports neither file of 2021-10-05 as shadowed", name)
		}
		files, err := collector.ListDir(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		rep := lab.Load(dir, files, nil)
		winner, loser := own, name
		if seal(t, filepath.Join(dir, name)) == lab.Tip("DE-CIX") {
			winner, loser = name, own
		}
		if seal(t, filepath.Join(dir, winner)) != lab.Tip("DE-CIX") || len(rep.Skipped) != 1 ||
			rep.Skipped[0].Error() != "apply "+loser+": shadowed by "+winner+", which serves day 2021-10-05" {
			t.Errorf("%s: serves tip %s, skipped %v; want %s served and %s shadowed by it", name, lab.Tip("DE-CIX"), rep.Skipped, winner, loser)
		}
		digests, tips = append(digests, lab.Digest), append(tips, lab.Tip("DE-CIX"))

		next := appendDays(t, dir, testDay("DE-CIX", "2021-10-06", "203.0.113.0/24", "192.0.2.0/24"))[0]
		dr, err := collector.OpenDelta(next)
		if err != nil {
			t.Fatal(err)
		}
		if base := dr.BaseDigest(); hex.EncodeToString(base[:]) != lab.Tip("DE-CIX") {
			t.Errorf("%s: the next crawl chains onto %x…, not the served %s", name, base[:4], winner)
		}
		serves(t, dir, "DE-CIX", "2021-10-06", 3)
	}
	if digests[0] != digests[1] || tips[0] != tips[1] {
		t.Errorf("the two names serve different days: tips %s and %s", tips[0], tips[1])
	}
}

// seal returns the hex seal of the delta at path, the digest a load
// names its served day by.
func seal(t *testing.T, path string) string {
	t.Helper()
	dr, err := collector.OpenDelta(path)
	if err != nil {
		t.Fatal(err)
	}
	d := dr.SelfDigest()
	return hex.EncodeToString(d[:])
}
