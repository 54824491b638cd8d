package report

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/netutil"
	"ixplight/internal/sanitize"
	"ixplight/internal/telemetry"
)

// TestLoadSnapshotDirCodecIndependence pins the analyze acceptance
// contract: running the experiment battery over a binary-encoded
// snapshot directory produces byte-identical output to running it
// over the same snapshots as generated, never serialised. The two labs
// share one generated series; only the trip through the codec differs.
func TestLoadSnapshotDirCodecIndependence(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
		days  = 3
	)
	profiles := ixpgen.BigFour()[:2]
	binDir := t.TempDir()
	mem := NewLabShell(profiles, seed, scale, 2)
	mem.Series = map[string][]analysis.DayCounts{}
	for _, p := range profiles {
		opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days}
		var last *collector.Snapshot
		err := ixpgen.EvolveSeries(p, opts, 0, func(_ int, snap *collector.Snapshot) error {
			mem.Series[p.IXP] = append(mem.Series[p.IXP], analysis.CountDay(snap))
			last = snap
			_, err := collector.SaveSnapshot(binDir, snap, collector.CodecBinary)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		mem.Indexes[p.IXP] = analysis.NewIndex(last, p.Scheme)
	}
	bin := NewLabShell(profiles, seed, scale, 2)
	if err := bin.LoadSnapshotDir(binDir); err != nil {
		t.Fatal(err)
	}
	memOuts, err := mem.RunMany(ExperimentNames)
	if err != nil {
		t.Fatal(err)
	}
	binOuts, err := bin.RunMany(ExperimentNames)
	if err != nil {
		t.Fatal(err)
	}
	for i := range memOuts {
		if !bytes.Equal(memOuts[i], binOuts[i]) {
			t.Errorf("%s: output differs between generated snapshots and the binary snapshot dir", ExperimentNames[i])
		}
	}
}

// TestLoadSnapshotDirColumnDirect pins the tentpole's end-to-end
// contract: loading a binary snapshot directory column-direct (the
// default) produces byte-identical experiment output to loading it
// with Materialize set — and really does skip materialization (every
// day of the fold is a header-only snapshot with its index).
func TestLoadSnapshotDirColumnDirect(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
		days  = 3
	)
	profiles := ixpgen.BigFour()[:2]
	binDir := t.TempDir()
	writeDeltaChain(t, profiles, t.TempDir(), binDir, ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days})

	run := func(materialize bool) (*Lab, [][]byte) {
		lab := NewLabShell(profiles, seed, scale, 2)
		lab.Materialize = materialize
		if err := lab.LoadSnapshotDir(binDir); err != nil {
			t.Fatal(err)
		}
		outs, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		return lab, outs
	}
	colLab, colOuts := run(false)
	matLab, matOuts := run(true)

	for _, p := range profiles {
		if colLab.Indexes[p.IXP].Snapshot().Routes != nil {
			t.Errorf("%s: column-direct load materialized routes", p.IXP)
		}
		if matLab.Indexes[p.IXP].Snapshot().Routes == nil {
			t.Errorf("%s: Materialize load produced no routes", p.IXP)
		}
		// The served day is a header-only snapshot with its index, which
		// keeps no chain state, as no delta extends it; every other day
		// is released to its counts and file digest.
		days := chainOf(t, colLab, p.IXP).days
		if d := days[len(days)-1]; d.snap.Routes != nil || d.ix == nil || d.ix.OwnsChain() {
			t.Errorf("%s %s: the served day materialized routes, has no index, or keeps its chain state", p.IXP, d.counts.Date)
		}
		for _, d := range days[:len(days)-1] {
			if d.snap != nil || d.ix != nil {
				t.Errorf("%s %s: a day the lab does not serve keeps its snapshot or index", p.IXP, d.counts.Date)
			}
		}
	}
	for i := range colOuts {
		if !bytes.Equal(colOuts[i], matOuts[i]) {
			t.Errorf("%s: output differs between column-direct and materialized loading", ExperimentNames[i])
		}
	}

	// A delta landing on a served .bin that dropped its chain state: the
	// reload decodes the file again and advances it.
	var next []*collector.Snapshot
	for _, p := range profiles {
		err := ixpgen.EvolveSeries(p, ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days + 1}, 0, func(day int, s *collector.Snapshot) error {
			if day == days {
				next = append(next, s)
				_, err := collector.Append(binDir, s, t.Logf)
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files, err := collector.ListDir(binDir, false)
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLabShell(profiles, seed, scale, 2)
	rep := lab.Load(binDir, files, colLab)
	if len(rep.Skipped) != 0 || rep.Decoded != len(profiles) || rep.Advances != len(profiles) {
		t.Fatalf("landing a delta on each served .bin: %+v, want one decode and one advance per IXP", rep)
	}
	for i, p := range profiles {
		if got := lab.Series[p.IXP]; len(got) != days+1 || got[days] != analysis.CountDay(next[i]) {
			t.Errorf("%s: the reload does not serve the landed day", p.IXP)
		}
	}
}

// TestLoadSnapshotDirSeries checks the loader's shape contract: per
// studied IXP a series sorted by date with one day per date — of two
// full files of a day the one with the lower sha256 serves, whatever
// the names — and the latest day
// promoted to the point-in-time slot. An IXP the lab does not study and
// an MRT export in the same directory are not loaded.
func TestLoadSnapshotDirSeries(t *testing.T) {
	dir := t.TempDir()
	mk := func(ixp, date string) *collector.Snapshot {
		return &collector.Snapshot{IXP: ixp, Date: date}
	}
	for _, s := range []*collector.Snapshot{mk("LINX", "2021-10-06"), mk("LINX", "2021-10-04"), mk("DE-CIX", "2021-10-04"), mk("AMS-IX", "2021-10-05")} {
		if _, err := collector.SaveSnapshot(dir, s, collector.CodecBinary); err != nil {
			t.Fatal(err)
		}
	}
	// Another crawl of LINX's first day, listed after the original and
	// told apart by its filtered count.
	copyDay := mk("LINX", "2021-10-04")
	copyDay.FilteredCount = 7
	err := collector.AtomicWrite(filepath.Join(dir, "LINX-2021-10-04.copy.bin"), func(w io.Writer) error {
		return collector.WriteSnapshot(w, copyDay, collector.CodecBinary)
	})
	if err != nil {
		t.Fatal(err)
	}
	day := mk("LINX", "2021-10-05")
	if err := os.WriteFile(collector.DatasetPath(dir, day, ".mrt"), []byte("an export, not a dataset file"), 0o644); err != nil {
		t.Fatal(err)
	}
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX"), *ixpgen.ProfileByName("LINX")}
	lab := NewLabShell(profiles, 1, 0.002, 2)
	if err := lab.LoadSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	linx := lab.Series["LINX"]
	lower := sha256.Sum256(copyBytes(t, filepath.Join(dir, "LINX-2021-10-04.copy.bin")))
	if other := sha256.Sum256(copyBytes(t, filepath.Join(dir, "LINX-2021-10-04.bin"))); bytes.Compare(other[:], lower[:]) < 0 {
		lower = other
	}
	if len(linx) != 2 || linx[0].Date != "2021-10-04" || linx[1].Date != "2021-10-06" {
		t.Errorf("LINX series wrong: %+v", linx)
	} else if chainOf(t, lab, "LINX").days[0].file != lower {
		t.Errorf("LINX's first day is not served from the file with the lower sha256")
	}
	if len(lab.Series) != 2 || len(lab.Indexes) != 2 || lab.Series["AMS-IX"] != nil {
		t.Errorf("serving %d series and %d indexes, want the two studied IXPs'", len(lab.Series), len(lab.Indexes))
	}
	if lab.Indexes["LINX"].Snapshot().Date != "2021-10-06" || lab.Indexes["DE-CIX"].Snapshot().Date != "2021-10-04" {
		t.Errorf("latest promotion wrong")
	}
}

// TestOneDayOneFile: a day stored in two files is served once. A .bin
// of every day next to the .delta chain of the same days (the chained
// day shadows the full file's), and a last day collected as .bin and
// exported as .mrt (the export is not part of the dataset), both serve
// the chain's days once each, with the chain's experiment output, and
// LoadReport counts the days served: a shadowed .bin is not a reused
// day when touching the newest file re-folds the chain.
func TestOneDayOneFile(t *testing.T) {
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}
	o := ixpgen.TemporalOptions{Seed: 1, Scale: 0.002, Days: 3}
	chainDir, both, binDir := t.TempDir(), t.TempDir(), t.TempDir()
	days := writeDeltaChain(t, profiles, chainDir, binDir, o)["DE-CIX"]
	writeDeltaChain(t, profiles, both, both, o)
	last := days[len(days)-1]
	if err := os.WriteFile(collector.DatasetPath(binDir, last, ".mrt"), []byte("an export, not a dataset file"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := loadAndRunAll(t, profiles, chainDir, 2, nil)
	for _, tc := range []struct {
		layout, dir, newest string
		rebuilt, reused     int // after touching newest
	}{
		{".bin and .delta of every day", both, "DE-CIX-" + last.Date + collector.DeltaExt, 3, 0},
		{".bin and .mrt of the last day", binDir, "DE-CIX-" + last.Date + ".bin", 1, 2},
	} {
		layout, dir := tc.layout, tc.dir
		lab, rep := loadFrom(t, profiles, dir, nil, nil)
		got := lab.Series["DE-CIX"]
		var dates []string
		for _, d := range got {
			dates = append(dates, d.Date)
		}
		if len(got) != len(days) || dates[0] != days[0].Date || dates[1] != days[1].Date || dates[2] != last.Date {
			t.Errorf("%s: serving days %v, want each of the %d days once", layout, dates, len(days))
			continue
		}
		if latest := chainOf(t, lab, "DE-CIX").newest(); lab.Indexes["DE-CIX"] != latest.ix || latest.ix == nil || latest.snap.Routes != nil {
			t.Errorf("%s: the lab does not serve the index of the header-only last day", layout)
		}
		if rep.Rebuilt != len(days) || rep.Reused+rep.Advanced != 0 || len(rep.Skipped) != 0 {
			t.Errorf("%s: fresh load %+v, want %d days rebuilt", layout, rep, len(days))
		}
		if lab, rep = loadFrom(t, profiles, dir, lab, nil); rep.Reused != len(days) || rep.Rebuilt+rep.Advanced != 0 {
			t.Errorf("%s: unchanged reload %+v, want %d days reused", layout, rep, len(days))
		}
		later := time.Now().Add(time.Hour)
		if err := os.Chtimes(filepath.Join(dir, tc.newest), later, later); err != nil {
			t.Fatal(err)
		}
		if _, rep = loadFrom(t, profiles, dir, lab, nil); rep.Rebuilt != tc.rebuilt || rep.Reused != tc.reused || rep.Advanced != 0 {
			t.Errorf("%s: reload after touching %s: %+v, want %d days rebuilt and %d reused", layout, tc.newest, rep, tc.rebuilt, tc.reused)
		}
		if got := loadAndRunAll(t, profiles, dir, 2, nil); !bytes.Equal(got, want) {
			t.Errorf("%s: experiments differ from the chain alone", layout)
		}
	}
}

// TestLoadStudiesOnlyItsIXPs: a lab loads the IXPs it studies and no
// other. Over a big-four chain a DE-CIX-only lab advances DE-CIX's days
// alone, skips nothing, serves DE-CIX alone and reads like a directory
// holding DE-CIX alone; another IXP's day landing costs one open of its
// header and nothing else.
func TestLoadStudiesOnlyItsIXPs(t *testing.T) {
	const days = 4
	o := ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: days}
	dir, stage, alone := t.TempDir(), t.TempDir(), t.TempDir()
	series := writeDeltaChain(t, ixpgen.BigFour(), dir, t.TempDir(), o)
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}
	writeDeltaChain(t, profiles, alone, t.TempDir(), o)
	tip := "LINX-" + series["LINX"][days-1].Date + collector.DeltaExt
	if err := os.Rename(filepath.Join(dir, tip), filepath.Join(stage, tip)); err != nil {
		t.Fatal(err)
	}

	lab, rep := loadFrom(t, profiles, dir, nil, nil)
	if rep.Advances != days-1 || len(rep.Skipped) != 0 {
		t.Errorf("DE-CIX-only load: %+v, want %d advances and nothing skipped", rep, days-1)
	}
	if len(lab.Series) != 1 || len(lab.Series["DE-CIX"]) != days || len(lab.Indexes) != 1 {
		t.Errorf("serving %d series (DE-CIX %d days), %d indexes; want DE-CIX's alone",
			len(lab.Series), len(lab.Series["DE-CIX"]), len(lab.Indexes))
	}
	got, err := lab.RunMany(ExperimentNames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(got, nil), loadAndRunAll(t, profiles, alone, 2, nil)) {
		t.Error("experiments differ from a directory holding DE-CIX alone")
	}

	if err := os.Rename(filepath.Join(stage, tip), filepath.Join(dir, tip)); err != nil {
		t.Fatal(err)
	}
	_, rep = loadFrom(t, profiles, dir, lab, nil)
	if rep.Opened != 1 || rep.Decoded+rep.Advances+rep.Advanced+rep.Rebuilt != 0 || rep.Reused != days || len(rep.Skipped) != 0 {
		t.Errorf("LINX's day landing: %+v, want one open and %d days reused", rep, days)
	}
}

// TestLoadIgnoresWhatIsNotADatasetFile pins what a dataset directory is:
// its .bin and .delta files. What `collect` leaves next to them —
// trace.jsonl, a checkpoint, the telemetry.json older runs wrote — is
// JSON that once decoded, by content sniffing, as a snapshot with an
// empty IXP; now it is not listed, not opened and not reported. A .bin
// that is not a snapshot is still a listed file the load skips, and a
// directory with no dataset file at all is an error naming the two
// extensions.
func TestLoadIgnoresWhatIsNotADatasetFile(t *testing.T) {
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}
	dir := t.TempDir()
	writeDeltaChain(t, profiles, dir, t.TempDir(), ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 3})
	strays := map[string]string{
		"telemetry.json":             `{"counters":{"ixplight_lg_requests_total":12}}`,
		"trace.jsonl":                `{"name":"collector.crawl","id":1}` + "\n",
		"checkpoint-2021-07-19.json": `{"ixp":"DE-CIX","date":"2021-07-19","done":[],"routes":[]}`,
	}
	for name, content := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lab, rep := loadFrom(t, profiles, dir, nil, nil)
	if len(lab.Series) != 1 || len(lab.Series["DE-CIX"]) != 3 {
		t.Errorf("series = %d IXPs (DE-CIX %d days), want the one chain of 3 days", len(lab.Series), len(lab.Series["DE-CIX"]))
	}
	if len(rep.Skipped) != 0 {
		t.Errorf("skipped = %v, want nothing: stray files are not part of the dataset", rep.Skipped)
	}

	if err := os.WriteFile(filepath.Join(dir, "DE-CIX-2021-01-01.bin"), []byte(strays["telemetry.json"]), 0o644); err != nil {
		t.Fatal(err)
	}
	lab, rep = loadFrom(t, profiles, dir, nil, nil)
	if len(rep.Skipped) != 1 || rep.Skipped[0].Op != "load" || rep.Skipped[0].File != "DE-CIX-2021-01-01.bin" ||
		!strings.Contains(rep.Skipped[0].Error(), "codecs were removed") {
		t.Errorf("skipped = %v, want the bad-magic .bin as a load casualty", rep.Skipped)
	}
	if len(lab.Series) != 1 || len(lab.Series["DE-CIX"]) != 3 {
		t.Errorf("a bad .bin took days with it: %d IXPs, DE-CIX %d days", len(lab.Series), len(lab.Series["DE-CIX"]))
	}

	onlyStrays := t.TempDir()
	if err := os.WriteFile(filepath.Join(onlyStrays, "LINX-2021-10-04.json.gz"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := NewLabShell(profiles, 42, 0.002, 1).LoadSnapshotDir(onlyStrays)
	if err == nil || !strings.Contains(err.Error(), "(.bin, .delta)") {
		t.Errorf("directory without dataset files: err = %v, want the two extensions named", err)
	}
}

func copyBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeDeltaChain writes each profile's series through the dataset
// writer, ixpgen.WriteSeries, into dir as a delta chain (day 0 full
// binary, every later day a .delta) and into fullDir as full binary
// files, one collector.SaveSnapshot per evolved day: a directory of
// chain heads alone, still a dataset a load reads. Returns the days per
// IXP, read back from the full files.
func writeDeltaChain(t testing.TB, profiles []ixpgen.Profile, dir, fullDir string, o ixpgen.TemporalOptions) map[string][]*collector.Snapshot {
	t.Helper()
	series := map[string][]*collector.Snapshot{}
	for _, p := range profiles {
		if _, err := ixpgen.WriteSeries(dir, p, o); err != nil {
			t.Fatal(err)
		}
		err := ixpgen.EvolveSeries(p, o, 0, func(_ int, snap *collector.Snapshot) error {
			path, err := collector.SaveSnapshot(fullDir, snap, collector.CodecBinary)
			if err != nil {
				return err
			}
			s, err := collector.LoadSnapshot(path)
			series[p.IXP] = append(series[p.IXP], s)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return series
}

// TestLoadSnapshotDirDeltaChain pins the delta chain end to end:
// loading a chain directory (one full day plus deltas) produces
// byte-identical experiment output to loading the same days as full
// files — on the default incremental path (which never materializes a
// route) and on the Materialize path, which reconstructs every day
// through the DeltaApplier — and each of the three labs publishes the
// direct count of every generated day.
func TestLoadSnapshotDirDeltaChain(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()[:2]
	o := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 5, ValleyDays: []int{3}}
	chainDir := t.TempDir()
	fullDir := t.TempDir()
	series := writeDeltaChain(t, profiles, chainDir, fullDir, o)

	run := func(dir string, cfg func(*Lab)) (*Lab, [][]byte) {
		lab := NewLabShell(profiles, seed, scale, 2)
		if cfg != nil {
			cfg(lab)
		}
		if err := lab.LoadSnapshotDir(dir); err != nil {
			t.Fatal(err)
		}
		outs, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		return lab, outs
	}

	fullLab, fullOuts := run(fullDir, nil)
	incLab, incOuts := run(chainDir, nil)
	matLab, matOuts := run(chainDir, func(l *Lab) { l.Materialize = true })

	for i := range fullOuts {
		if !bytes.Equal(fullOuts[i], incOuts[i]) {
			t.Errorf("%s: incremental chain output differs from full files", ExperimentNames[i])
		}
		if !bytes.Equal(fullOuts[i], matOuts[i]) {
			t.Errorf("%s: Materialize chain output differs from full files", ExperimentNames[i])
		}
	}

	days := byDay(series)
	for tag, lab := range map[string]*Lab{"full files": fullLab, "incremental": incLab, "Materialize": matLab} {
		for _, p := range profiles {
			if got, want := len(lab.Series[p.IXP]), len(series[p.IXP]); got != want {
				t.Fatalf("%s: %s series length %d, want %d", tag, p.IXP, got, want)
			}
		}
		checkCounts(t, tag, lab, days)
	}
	// The incremental chain never materializes a route.
	for _, p := range profiles {
		for _, d := range chainOf(t, incLab, p.IXP).days {
			if d.snap != nil && d.snap.Routes != nil {
				t.Errorf("%s %s: incremental chain materialized routes", p.IXP, d.counts.Date)
			}
		}
	}
}

// TestStabilityIsOneWorld: a generated lab is the dataset `ixpgen`
// writes at the same seed and scale (`-days 84 -valleys 9,41`), loaded —
// as full .bin files and as a .bin + .delta chain — so the whole `-exp
// all` battery reads the same world whichever way the days came.
func TestStabilityIsOneWorld(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()[1:3]
	chainDir, binDir := t.TempDir(), t.TempDir()
	writeDeltaChain(t, profiles, chainDir, binDir, ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 84, ValleyDays: generatedValleys[:]})
	gen, err := GenerateLab(profiles, seed, scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.RunMany(ExperimentNames)
	if err != nil {
		t.Fatal(err)
	}
	for layout, dir := range map[string]string{".bin per day": binDir, ".bin + .delta chain": chainDir} {
		lab := NewLabShell(profiles, seed, scale, 2)
		if err := lab.LoadSnapshotDir(dir); err != nil {
			t.Fatal(err)
		}
		got, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range ExperimentNames {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s over a %s dataset differs from the generated lab:\n%s\nvs\n%s", name, layout, got[i], want[i])
			}
		}
	}
}

// TestTable4PicksMondaysByDate: Table 4 stands each week for the first
// surviving day of its 7-day block, by date. Over four weeks of DE-CIX
// with a collection valley on day 9 (the benchmark dataset's shape),
// sanitation removes day 9 and the rows read days 0, 7, 14 and 21 —
// not 0, 7, 15 and 22, which every 7th surviving day would be.
func TestTable4PicksMondaysByDate(t *testing.T) {
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}
	dir := t.TempDir()
	writeDeltaChain(t, profiles, dir, t.TempDir(), ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 28, ValleyDays: []int{9}})
	lab, _ := loadFrom(t, profiles, dir, nil, nil)
	series := lab.Series["DE-CIX"]
	if v := sanitize.DetectValleys(series); len(series) != 28 || !slices.Equal(v, []int{9}) {
		t.Fatalf("%d days with valleys %v, want 28 days with the valley on day 9", len(series), v)
	}
	mondays := []analysis.DayCounts{series[0], series[7], series[14], series[21]}
	want := AppendSection(nil, "Table 4 — weekly variation over twelve weeks")
	want = AppendStability(want, "DE-CIX-v4", analysis.Stability(mondays, false))
	want = AppendStability(want, "DE-CIX-v6", analysis.Stability(mondays, true))
	var got bytes.Buffer
	if err := lab.Run(&got, "table4"); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Table 4 over days %s, %s, %s, %s reads\n%s\nwant\n%s", mondays[0].Date, mondays[1].Date, mondays[2].Date, mondays[3].Date, got.String(), want)
	}
}

// TestLoadSnapshotDirDeltaMissingBase pins the failure mode: a chain
// whose base snapshot is absent from the directory is an error, not a
// silently dropped day.
func TestLoadSnapshotDirDeltaMissingBase(t *testing.T) {
	profiles := ixpgen.BigFour()[:1]
	o := ixpgen.TemporalOptions{Seed: 7, Scale: 0.002, Days: 3}
	chainDir := t.TempDir()
	writeDeltaChain(t, profiles, chainDir, t.TempDir(), o)
	ents, err := os.ReadDir(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), collector.DeltaExt) {
			if err := os.Remove(filepath.Join(chainDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := NewLabShell(profiles, 7, 0.002, 2).LoadSnapshotDir(chainDir); err == nil {
		t.Fatal("loading a delta chain without its base succeeded")
	} else if !strings.Contains(err.Error(), "no snapshot for base day") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// loadAndRunAll loads dir into a fresh shell lab at the given worker
// budget and returns the concatenated `-exp all` output.
func loadAndRunAll(t *testing.T, profiles []ixpgen.Profile, dir string, workers int, cfg func(*Lab)) []byte {
	t.Helper()
	lab := NewLabShell(profiles, 42, 0.002, workers)
	if cfg != nil {
		cfg(lab)
	}
	if err := lab.LoadSnapshotDir(dir); err != nil {
		t.Fatalf("parallel=%d: %v", workers, err)
	}
	outs, err := lab.RunMany(ExperimentNames)
	if err != nil {
		t.Fatalf("parallel=%d: %v", workers, err)
	}
	return bytes.Join(outs, nil)
}

// TestLoadSnapshotDirParallelFold pins the per-IXP chain fold: a
// four-IXP .bin + .delta dataset yields byte-identical `-exp all`
// output whether the chains fold on one worker, on fewer workers than
// IXPs or on more, and that output equals the Materialize reference,
// whose days come out of the DeltaApplier as routes, not out of
// Index.Advance. Run under -race.
func TestLoadSnapshotDirParallelFold(t *testing.T) {
	profiles := ixpgen.BigFour()
	o := ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 5, ValleyDays: []int{3}}
	chainDir := t.TempDir()
	writeDeltaChain(t, profiles, chainDir, t.TempDir(), o)

	want := loadAndRunAll(t, profiles, chainDir, 1, func(l *Lab) { l.Materialize = true })
	for _, workers := range []int{1, 2, 8} {
		if got := loadAndRunAll(t, profiles, chainDir, workers, nil); !bytes.Equal(got, want) {
			t.Errorf("parallel=%d: output differs from the Materialize reference (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestLoadSnapshotDirBrokenChainsDeterministic pins which failure a
// directory with several broken chains reports: the lexically first
// broken IXP's, and within it the earliest broken day's — not whichever
// worker lost the race, and not the earliest date across IXPs (LINX
// breaks a day before DE-CIX here). The error stays wrapped as
// "apply <file>: …" and errors.Is-able.
func TestLoadSnapshotDirBrokenChainsDeterministic(t *testing.T) {
	profiles := ixpgen.BigFour()
	o := ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 6}
	chainDir := t.TempDir()
	series := writeDeltaChain(t, profiles, chainDir, t.TempDir(), o)
	deltaPath := func(dir, ixp string, day int) string {
		return filepath.Join(dir, ixp+"-"+series[ixp][day].Date+collector.DeltaExt)
	}
	remove := func(ixp string, day int) {
		t.Helper()
		if err := os.Remove(deltaPath(chainDir, ixp, day)); err != nil {
			t.Fatal(err)
		}
	}

	// DE-CIX day 3 comes from a differently seeded chain: same base date,
	// wrong base digest. Day 5 loses its base, a later break in the same
	// chain. LINX day 2 loses its base: an earlier date, a later IXP.
	foreignDir := t.TempDir()
	foreign := o
	foreign.Seed = 43
	writeDeltaChain(t, []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}, foreignDir, t.TempDir(), foreign)
	alien, err := os.ReadFile(deltaPath(foreignDir, "DE-CIX", 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deltaPath(chainDir, "DE-CIX", 3), alien, 0o644); err != nil {
		t.Fatal(err)
	}
	remove("DE-CIX", 4)
	remove("LINX", 1)

	load := func(workers int, materialize bool) error {
		lab := NewLabShell(profiles, 42, 0.002, workers)
		lab.Materialize = materialize
		return lab.LoadSnapshotDir(chainDir)
	}
	wantPrefix := "apply " + filepath.Base(deltaPath(chainDir, "DE-CIX", 3)) + ": "
	for _, materialize := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			err := load(workers, materialize)
			if err == nil || !strings.HasPrefix(err.Error(), wantPrefix) || !errors.Is(err, collector.ErrDeltaBaseMismatch) {
				t.Errorf("parallel=%d materialize=%v: got %v, want %q… wrapping ErrDeltaBaseMismatch",
					workers, materialize, err, wantPrefix)
			}
		}
	}

	// Without the alien day, DE-CIX's first break is day 5's missing base.
	remove("DE-CIX", 3)
	wantPrefix = "apply " + filepath.Base(deltaPath(chainDir, "DE-CIX", 5)) + ": no snapshot for base day"
	for _, workers := range []int{1, 8} {
		if err := load(workers, false); err == nil || !strings.HasPrefix(err.Error(), wantPrefix) {
			t.Errorf("parallel=%d: got %v, want %q…", workers, err, wantPrefix)
		}
	}
}

// loadFrom lists dir and loads it into a fresh shell lab on top of prev.
func loadFrom(t *testing.T, profiles []ixpgen.Profile, dir string, prev *Lab, cfg func(*Lab)) (*Lab, LoadReport) {
	t.Helper()
	files, err := collector.ListDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLabShell(profiles, 42, 0.002, 2)
	if cfg != nil {
		cfg(lab)
	}
	return lab, lab.Load(dir, files, prev)
}

// TestLoadFromPredecessor pins what a load on top of a predecessor
// does, step by step on one two-IXP chain directory: an unchanged
// directory shares everything, a landed day is one open and one
// Advance, a removed tip re-folds that IXP alone from its base, and at
// every step the experiments read the same as from a fresh load.
func TestLoadFromPredecessor(t *testing.T) {
	profiles := ixpgen.BigFour()[:2]
	o := ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 6}
	dir, stage := t.TempDir(), t.TempDir()
	series := writeDeltaChain(t, profiles, dir, t.TempDir(), o)
	ixp := profiles[1].IXP
	tip := ixp + "-" + series[ixp][5].Date + collector.DeltaExt
	move := func(from, to string) {
		t.Helper()
		if err := os.Rename(filepath.Join(from, tip), filepath.Join(to, tip)); err != nil {
			t.Fatal(err)
		}
	}
	sameAsFresh := func(lab *Lab) {
		t.Helper()
		got, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		if want := loadAndRunAll(t, profiles, dir, 2, nil); !bytes.Equal(bytes.Join(got, nil), want) {
			t.Error("experiments differ from a fresh load of the same directory")
		}
	}
	move(dir, stage)

	lab, rep := loadFrom(t, profiles, dir, nil, nil)
	if rep.Decoded != 2 || rep.Advances != 9 || rep.Rebuilt != 11 || rep.Reused != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("fresh load: %+v", rep)
	}

	lab, rep = loadFrom(t, profiles, dir, lab, nil)
	if rep.Opened+rep.Decoded+rep.Advances != 0 || rep.Reused != 11 {
		t.Fatalf("unchanged directory: %+v", rep)
	}

	move(stage, dir)
	before := lab
	lab, rep = loadFrom(t, profiles, dir, lab, nil)
	if rep.Opened != 1 || rep.Decoded != 0 || rep.Advances != 1 || rep.Reused != 11 || rep.Advanced != 1 || rep.Rebuilt != 0 {
		t.Fatalf("one landed day: %+v", rep)
	}
	// The days before the predecessor's served day are shared; that day
	// stays the predecessor's, and a copy released to its counts and
	// file digest takes its place.
	now, was := chainOf(t, lab, ixp).days, chainOf(t, before, ixp).days
	if len(lab.Series[ixp]) != 6 || len(before.Series[ixp]) != 5 || !slices.Equal(now[:4], was[:4]) ||
		now[4] == was[4] || now[4].ix != nil || was[4].ix == nil || now[4].counts != was[4].counts || now[4].file != was[4].file {
		t.Fatalf("landed day: series %d days (predecessor %d), earlier days not shared", len(lab.Series[ixp]), len(before.Series[ixp]))
	}
	checkCounts(t, "one landed day", lab, byDay(series))
	sameAsFresh(lab)

	move(dir, stage)
	lab, rep = loadFrom(t, profiles, dir, lab, nil)
	if rep.Opened != 4 || rep.Decoded != 1 || rep.Advances != 4 || rep.Reused != 6 || rep.Rebuilt != 5 {
		t.Fatalf("removed tip: %+v", rep)
	}
	sameAsFresh(lab)

	// The re-folded chain has an advanceable tip again.
	move(stage, dir)
	lab, rep = loadFrom(t, profiles, dir, lab, nil)
	if rep.Decoded != 0 || rep.Advances != 1 || rep.Advanced != 1 {
		t.Fatalf("landed day after a re-fold: %+v", rep)
	}
	sameAsFresh(lab)
}

// TestLoadSkipsWhatItCannotUse pins the degraded load: a tip with
// corrupt ops and a day that arrived before its predecessor are
// reported, not fatal; their chains serve up to the last good day — the
// half-applied one re-folded from its base; the corrupt bytes are not
// tried again while the file stays as it is; a tip with a flipped bit
// is refused at open, by its seal; and both days are picked up once a
// later listing makes them loadable. A materializing lab re-folds
// instead of advancing but ends up the same.
func TestLoadSkipsWhatItCannotUse(t *testing.T) {
	profiles := ixpgen.BigFour()[:2]
	o := ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 6}
	for _, materialize := range []bool{false, true} {
		cfg := func(l *Lab) { l.Materialize = materialize }
		dir := t.TempDir()
		series := writeDeltaChain(t, profiles, dir, t.TempDir(), o)
		a, b := profiles[1].IXP, profiles[0].IXP // DE-CIX sorts first
		path := func(ixp string, day int) string {
			return filepath.Join(dir, ixp+"-"+series[ixp][day].Date+collector.DeltaExt)
		}
		whole, err := os.ReadFile(path(a, 5))
		if err != nil {
			t.Fatal(err)
		}
		// a's tip keeps its header and tables but its last op no longer
		// decodes, and it is sealed again, so it opens and applying it
		// fails partway through; b's day 4 is held back, so day 5
		// arrives before its predecessor.
		ops := len(whole) - sha256.Size
		corrupt := append(whole[:ops-3:ops-3], 0xff, 0xff, 0xff)
		seal := sha256.Sum256(corrupt)
		if err := os.WriteFile(path(a, 5), append(corrupt, seal[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		held, err := os.ReadFile(path(b, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path(b, 4)); err != nil {
			t.Fatal(err)
		}

		lab, rep := loadFrom(t, profiles, dir, nil, cfg)
		if len(rep.Skipped) != 2 || rep.Skipped[0].File != filepath.Base(path(a, 5)) || rep.Skipped[1].File != filepath.Base(path(b, 5)) {
			t.Fatalf("materialize=%v: skipped %+v", materialize, rep.Skipped)
		}
		if rep.Skipped[0].Op != "apply" {
			t.Errorf("materialize=%v: corrupt ops skipped as %v, want an apply failure", materialize, &rep.Skipped[0])
		}
		if !strings.Contains(rep.Skipped[1].Error(), "no snapshot for base day") {
			t.Errorf("materialize=%v: out-of-order day skipped as %v", materialize, &rep.Skipped[1])
		}
		if len(lab.Series[a]) != 5 || len(lab.Series[b]) != 4 {
			t.Fatalf("materialize=%v: serving %d and %d days, want 5 and 4", materialize, len(lab.Series[a]), len(lab.Series[b]))
		}
		if err := NewLabShell(profiles, 42, 0.002, 2).LoadSnapshotDir(dir); err == nil || err.Error() != rep.Skipped[0].Error() {
			t.Errorf("materialize=%v: LoadSnapshotDir returned %v, want the first skipped file's error", materialize, err)
		}

		// b's missing day lands: a's bad bytes are still the same file.
		if err := os.WriteFile(path(b, 4), held, 0o644); err != nil {
			t.Fatal(err)
		}
		lab, rep = loadFrom(t, profiles, dir, lab, cfg)
		if len(rep.Skipped) != 1 || len(lab.Series[b]) != 6 {
			t.Fatalf("materialize=%v: after the predecessor landed: %d days, skipped %+v", materialize, len(lab.Series[b]), rep.Skipped)
		}
		if !materialize && (rep.Decoded != 0 || rep.Advances != 2 || rep.Opened != 2) {
			t.Errorf("picking up two days cost %+v", rep)
		}

		// a's tip turns up with its last op's bit flipped and its seal
		// as it was: the file does not open.
		flipped := bytes.Clone(whole)
		flipped[ops-1] ^= 1
		if err := os.WriteFile(path(a, 5), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		lab, rep = loadFrom(t, profiles, dir, lab, cfg)
		if len(rep.Skipped) != 1 || rep.Skipped[0].File != filepath.Base(path(a, 5)) || rep.Skipped[0].Op != "load" ||
			!strings.Contains(rep.Skipped[0].Error(), "seal") || len(lab.Series[a]) != 5 {
			t.Fatalf("materialize=%v: a flipped bit in the tip: %d days, skipped %+v; want it refused at open, by its seal", materialize, len(lab.Series[a]), rep.Skipped)
		}

		// a's tip is repaired.
		if err := os.WriteFile(path(a, 5), whole, 0o644); err != nil {
			t.Fatal(err)
		}
		lab, rep = loadFrom(t, profiles, dir, lab, cfg)
		if len(rep.Skipped) != 0 || len(lab.Series[a]) != 6 {
			t.Fatalf("materialize=%v: after the repair: %d days, skipped %+v", materialize, len(lab.Series[a]), rep.Skipped)
		}
		if !materialize && (rep.Decoded != 0 || rep.Advances != 1) {
			t.Errorf("picking up the repaired day cost %+v", rep)
		}
		got, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		if want := loadAndRunAll(t, profiles, dir, 2, cfg); !bytes.Equal(bytes.Join(got, nil), want) {
			t.Errorf("materialize=%v: experiments differ from a fresh load", materialize)
		}
	}
}

// TestServedFullFileFallsBack: a directory of full files serves its
// newest; the days before it keep only their counts. When the newest
// file leaves, the next one must be decoded again to be served; if it
// has left too since the listing was taken, the load reports it and
// serves the day before, decoded afresh, rather than no day at all.
func TestServedFullFileFallsBack(t *testing.T) {
	profiles := []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}
	dir := t.TempDir()
	days := writeDeltaChain(t, profiles, t.TempDir(), dir, ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 3})["DE-CIX"]
	lab, rep := loadFrom(t, profiles, dir, nil, nil)
	if len(rep.Skipped) != 0 || lab.Indexes["DE-CIX"].Snapshot().Date != days[2].Date {
		t.Fatalf("first load: %+v", rep)
	}
	path := func(d int) string { return collector.DatasetPath(dir, days[d], collector.CodecBinary.Ext()) }
	if err := os.Remove(path(2)); err != nil {
		t.Fatal(err)
	}
	files, err := collector.ListDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path(1)); err != nil {
		t.Fatal(err)
	}
	next := NewLabShell(profiles, 42, 0.002, 2)
	rep = next.Load(dir, files, lab)
	if len(rep.Skipped) != 1 || rep.Skipped[0].File != filepath.Base(path(1)) || rep.Decoded != 2 {
		t.Fatalf("reload: %+v, want day 1's file skipped and two decodes", rep)
	}
	if ix := next.Indexes["DE-CIX"]; ix == nil || ix.Snapshot().Date != days[0].Date || len(next.Series["DE-CIX"]) != 1 {
		t.Fatalf("serving %d days; want day 0 alone, served", len(next.Series["DE-CIX"]))
	}
}

// TestSkippedNamesNoDirectory: a skipped file's reason names the file
// as the listing does, never the directory the dataset lies in, so it
// reads the same from any copy: a delta cut short (a parse error), a
// delta whose link leads nowhere (an open error) and a snapshot that is
// a directory under a file's name (a read error).
func TestSkippedNamesNoDirectory(t *testing.T) {
	profiles := ixpgen.BigFour()[:1]
	dir := t.TempDir()
	series := writeDeltaChain(t, profiles, dir, t.TempDir(), ixpgen.TemporalOptions{Seed: 42, Scale: 0.002, Days: 3})
	days := series[profiles[0].IXP]
	tip := filepath.Join(dir, profiles[0].IXP+"-"+days[2].Date+collector.DeltaExt)
	whole, err := os.ReadFile(tip)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tip, whole[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("gone", filepath.Join(dir, "AMS-IX-2021-10-05.delta")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("sub", filepath.Join(dir, "LINX-2021-10-04.bin")); err != nil {
		t.Fatal(err)
	}
	_, rep := loadFrom(t, profiles, dir, nil, nil)
	if len(rep.Skipped) != 3 {
		t.Fatalf("skipped %+v, want the cut delta, the dangling link and the directory", rep.Skipped)
	}
	for i := range rep.Skipped {
		sk := &rep.Skipped[i]
		if why := sk.Err.Error(); strings.Contains(why, dir) || !strings.HasPrefix(why, "collector:") && !strings.Contains(why, " "+sk.File+": ") {
			t.Errorf("%s skipped as %q: want the file named as listed, the directory not at all", sk.File, why)
		}
	}
}

// TestLabHoldsItsIndexes pins who builds an index: the lab's builder,
// once per IXP, before any experiment runs. A lab built each of the
// three ways — generated, loaded off columns and deltas, loaded
// materialized — holds the index of every profile's latest day, and a
// full `-exp all` over it builds none: the materialized lab paid one
// "routes" build per IXP up front, the generated lab and the default
// load none at all (their days come off columns and deltas; the
// generated lab is a load of its twelve-week dataset).
func TestLabHoldsItsIndexes(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
		days  = 4
	)
	profiles := ixpgen.BigFour()
	dir := t.TempDir()
	writeDeltaChain(t, profiles, dir, t.TempDir(), ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days})
	load := func(materialize bool) func() (*Lab, error) {
		return func() (*Lab, error) {
			lab := NewLabShell(profiles, seed, scale, 2)
			lab.Materialize = materialize
			return lab, lab.LoadSnapshotDir(dir)
		}
	}
	for _, tc := range []struct {
		name                   string
		build                  func() (*Lab, error)
		routes, columns, delta int64
	}{
		{"generated", func() (*Lab, error) { return GenerateLab(profiles, seed, scale, 2) }, 0, 4, 4 * 83},
		{"load", load(false), 0, 4, 4 * (days - 1)},
		{"load-materialize", load(true), 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			sink := &telemetry.RecordingSink{}
			reg.SetSpanSink(sink)
			analysis.SetTelemetry(reg)
			defer analysis.SetTelemetry(nil)
			builds := func(source string) int64 {
				return reg.CounterVec("ixplight_analysis_index_builds_total", "", "source").With(source).Value()
			}

			lab, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range profiles {
				ix := lab.Indexes[p.IXP]
				if ix == nil || (lab.loaded != nil && ix.Snapshot() != chainOf(t, lab, p.IXP).newest().snap) {
					t.Fatalf("%s: the lab does not hold the index of its latest snapshot", p.IXP)
				}
			}
			if r, c, d := builds("routes"), builds("columns"), builds("delta"); r != tc.routes || c != tc.columns || d != tc.delta {
				t.Errorf("building the lab: %d routes, %d columns, %d delta builds; want %d, %d, %d", r, c, d, tc.routes, tc.columns, tc.delta)
			}

			lab.Telemetry = reg
			if _, err := lab.RunMany(ExperimentNames); err != nil {
				t.Fatal(err)
			}
			if r, c, d := builds("routes"), builds("columns"), builds("delta"); r != tc.routes || c != tc.columns || d != tc.delta {
				t.Errorf("after -exp all: %d routes, %d columns, %d delta builds; the experiments must build none", r, c, d)
			}
			experiments := sink.Named("report.experiment")
			if len(experiments) != len(ExperimentNames) {
				t.Fatalf("%d report.experiment spans, want %d", len(experiments), len(ExperimentNames))
			}
			first := experiments[0].Start
			for _, sp := range experiments {
				if sp.Start.Before(first) {
					first = sp.Start
				}
			}
			for _, sp := range sink.Named("analysis.index_build") {
				if sp.Stop.After(first) {
					t.Errorf("an index build ended %v after the first experiment started", sp.Stop.Sub(first))
				}
			}
		})
	}
}

// TestLoadAllocsPerDay pins what a load pays per chain day: loads of
// one chain shape — every member announcing two routes, and each day
// one withdrawal answered by one announcement under an unchanged
// member list — at two membership sizes and two lengths. The
// difference between the lengths is the cost of the added delta days
// (listing, open, Advance, the day's counts), and it must not grow
// with the membership: a day's header is built against its base's, so
// an unchanged member list costs nothing. Measured on linux/amd64 at 17
// allocations per day at either size; while every delta's header
// decoded its whole member list, a day cost 30 at 10 members and 180 at
// 160.
func TestLoadAllocsPerDay(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	p := ixpgen.BigFour()[0]
	chain := func(members, days int) string {
		dir := t.TempDir()
		day := &collector.Snapshot{IXP: p.IXP, Date: "2021-10-04"}
		route := func(peer uint32, i int) bgp.Route {
			return bgp.Route{
				Prefix:      netutil.SyntheticV4Prefix(i),
				NextHop:     netutil.PeerAddrV4(int(peer % 200)),
				ASPath:      bgp.ASPath{peer, 3356},
				Communities: []bgp.Community{p.Scheme.DoNotAnnounce(6939), bgp.NewCommunity(uint16(peer), 100)},
			}
		}
		for m := 0; m < members; m++ {
			asn := uint32(64512 + m)
			day.Members = append(day.Members, collector.Member{ASN: asn, Name: fmt.Sprintf("AS%d Member", asn), IPv4: true})
			day.Routes = append(day.Routes, route(asn, 2*m), route(asn, 2*m+1))
		}
		day.Normalize()
		if _, err := collector.SaveSnapshot(dir, day, collector.CodecBinary); err != nil {
			t.Fatal(err)
		}
		enc, err := collector.NewDeltaEncoder(day)
		if err != nil {
			t.Fatal(err)
		}
		start, _ := time.Parse(time.DateOnly, day.Date)
		for d := 1; d < days; d++ {
			next := *day
			next.Date = start.AddDate(0, 0, d).Format(time.DateOnly)
			peer := uint32(64512 + d%members)
			gone := route(peer, 2*(d%members)).Prefix
			next.Routes = slices.DeleteFunc(slices.Clone(day.Routes), func(r bgp.Route) bool { return r.Prefix == gone })
			next.Routes = append(next.Routes, route(peer, 2*members+d))
			next.Normalize()
			buf, err := enc.Encode(&next)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, p.IXP+"-"+next.Date+collector.DeltaExt), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			day = &next
		}
		return dir
	}
	load := func(dir string, days int) float64 {
		return testing.AllocsPerRun(5, func() {
			lab := NewLabShell([]ixpgen.Profile{p}, 42, 0.004, 1)
			if err := lab.LoadSnapshotDir(dir); err != nil {
				t.Fatal(err)
			}
			if len(lab.Series[p.IXP]) != days {
				t.Fatalf("loaded %d days, want %d", len(lab.Series[p.IXP]), days)
			}
		})
	}
	const short, long = 4, 12
	perDay := map[int]float64{}
	for _, members := range []int{10, 160} {
		perDay[members] = (load(chain(members, long), long) - load(chain(members, short), short)) / (long - short)
		t.Logf("%d members: %.1f allocations per added day", members, perDay[members])
	}
	if perDay[160] > perDay[10]+1 {
		t.Errorf("a day costs %.1f allocations at 160 members, %.1f at 10: the cost grows with the membership", perDay[160], perDay[10])
	}
	const ceiling = 20
	if perDay[160] > ceiling {
		t.Errorf("a chain day costs %.1f allocations, ceiling %d", perDay[160], ceiling)
	}
}

// TestGenerateLabLeavesNoDirectory: GenerateLab removes the dataset it
// wrote, whether the lab loaded or the writes failed partway, and a
// loaded lab needs none of its files afterwards — it holds its days,
// never a DeltaReader or an open snapshot reader — so every experiment
// runs once the directory is gone.
func TestGenerateLabLeavesNoDirectory(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	left := func() []string {
		t.Helper()
		ents, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	de := *ixpgen.ProfileByName("DE-CIX")

	lab, err := GenerateLab([]ixpgen.Profile{de}, 42, 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if names := left(); len(names) != 0 {
		t.Fatalf("a generated lab left %v behind", names)
	}
	if n := len(lab.Series[de.IXP]); n != 84 {
		t.Fatalf("the generated lab holds %d days of %s, want 84", n, de.IXP)
	}
	if _, err := lab.RunMany(ExperimentNames); err != nil {
		t.Fatalf("experiments over a generated lab whose files are gone: %v", err)
	}

	// The second profile cannot be generated, after the first one's
	// days were written.
	broken := de
	broken.IXP, broken.Scheme = "broken", nil
	if lab, err := GenerateLab([]ixpgen.Profile{de, broken}, 42, 0.002, 1); err == nil || lab != nil {
		t.Fatalf("generating a profile with no scheme: lab %v, err %v; want no lab and an error", lab != nil, err)
	}
	if names := left(); len(names) != 0 {
		t.Fatalf("a failed generation left %v behind", names)
	}
}
