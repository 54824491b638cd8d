package report

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/mrt"
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
	mem.Series = map[string][]*collector.Snapshot{}
	for _, p := range profiles {
		opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days}
		for d := 0; d < days; d++ {
			w, date, err := ixpgen.GenerateDay(p, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			snap := w.Snapshot(date)
			if _, err := collector.SaveSnapshot(binDir, snap, collector.CodecBinary); err != nil {
				t.Fatal(err)
			}
			mem.Series[p.IXP] = append(mem.Series[p.IXP], snap)
			mem.Snapshots[p.IXP] = snap
		}
		mem.Indexes[p.IXP] = analysis.NewIndex(mem.Snapshots[p.IXP], p.Scheme)
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
// with Materialize set — and really does skip materialization (the
// loaded snapshots are header-only with their index attached).
func TestLoadSnapshotDirColumnDirect(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
		days  = 3
	)
	profiles := ixpgen.BigFour()[:2]
	binDir := t.TempDir()
	for _, p := range profiles {
		opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days}
		for d := 0; d < days; d++ {
			w, date, err := ixpgen.GenerateDay(p, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := collector.SaveSnapshot(binDir, w.Snapshot(date), collector.CodecBinary); err != nil {
				t.Fatal(err)
			}
		}
	}

	run := func(materialize bool) (*Lab, [][]byte) {
		lab, err := NewLabParallel(profiles, seed, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
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
		if colLab.Snapshots[p.IXP].Routes != nil {
			t.Errorf("%s: column-direct load materialized routes", p.IXP)
		}
		if matLab.Snapshots[p.IXP].Routes == nil {
			t.Errorf("%s: Materialize load produced no routes", p.IXP)
		}
		for _, s := range colLab.Series[p.IXP] {
			if s.Routes != nil {
				t.Errorf("%s %s: column-direct series snapshot materialized routes", p.IXP, s.Date)
			}
		}
	}
	for i := range colOuts {
		if !bytes.Equal(colOuts[i], matOuts[i]) {
			t.Errorf("%s: output differs between column-direct and materialized loading", ExperimentNames[i])
		}
	}
}

// TestLoadSnapshotDirSeries checks the loader's shape contract:
// per-IXP series sorted by date, latest snapshot promoted to the
// point-in-time slot, binary files and MRT exports in one directory.
func TestLoadSnapshotDirSeries(t *testing.T) {
	dir := t.TempDir()
	mk := func(ixp, date string) *collector.Snapshot {
		return &collector.Snapshot{IXP: ixp, Date: date}
	}
	for _, s := range []*collector.Snapshot{mk("LINX", "2021-10-06"), mk("LINX", "2021-10-04"), mk("DE-CIX", "2021-10-04")} {
		if _, err := collector.SaveSnapshot(dir, s, collector.CodecBinary); err != nil {
			t.Fatal(err)
		}
	}
	day := mk("LINX", "2021-10-05")
	err := collector.AtomicWrite(collector.DatasetPath(dir, day, collector.MRTExt), func(w io.Writer) error {
		return mrt.WriteRIB(w, day)
	})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewLabParallel(ixpgen.BigFour()[:1], 1, 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.LoadSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	linx := lab.Series["LINX"]
	if len(linx) != 3 || linx[0].Date != "2021-10-04" || linx[1].Date != "2021-10-05" || linx[2].Date != "2021-10-06" {
		t.Errorf("LINX series wrong: %+v", linx)
	}
	if lab.Snapshots["LINX"].Date != "2021-10-06" || lab.Snapshots["DE-CIX"].Date != "2021-10-04" {
		t.Errorf("latest promotion wrong")
	}
}

// TestLoadIgnoresWhatIsNotADatasetFile pins what a dataset directory is:
// its .bin, .delta and .mrt files. What `collect` leaves next to them —
// trace.jsonl, a checkpoint, the telemetry.json older runs wrote — is
// JSON that once decoded, by content sniffing, as a snapshot with an
// empty IXP; now it is not listed, not opened and not reported. A .bin
// that is not a snapshot is still a listed file the load skips, and a
// directory with no dataset file at all is an error naming the three
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
	if err == nil || !strings.Contains(err.Error(), ".bin, .delta, .mrt") {
		t.Errorf("directory without dataset files: err = %v, want the three extensions named", err)
	}
}

// writeDeltaChain evolves a daily series for each profile into dir as
// a delta chain (day 0 full binary, every later day a .delta), and
// the same days into fullDir as full binary files. Returns the
// materialized series per IXP.
func writeDeltaChain(t testing.TB, profiles []ixpgen.Profile, dir, fullDir string, o ixpgen.TemporalOptions) map[string][]*collector.Snapshot {
	t.Helper()
	series := map[string][]*collector.Snapshot{}
	for _, p := range profiles {
		var enc *collector.DeltaEncoder
		err := ixpgen.EvolveSeries(p, o, 0.05, func(day int, s *collector.Snapshot) error {
			series[p.IXP] = append(series[p.IXP], s)
			if _, err := collector.SaveSnapshot(fullDir, s, collector.CodecBinary); err != nil {
				return err
			}
			if day == 0 {
				var err error
				enc, err = collector.NewDeltaEncoder(s)
				if err != nil {
					return err
				}
				_, err2 := collector.SaveSnapshot(dir, s, collector.CodecBinary)
				return err2
			}
			buf, err := enc.Encode(s)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, s.IXP+"-"+s.Date+collector.DeltaExt), buf, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return series
}

// TestLoadSnapshotDirDeltaChain pins the delta tentpole end to end:
// loading a chain directory (one full day plus deltas) produces
// byte-identical experiment output to loading the same days as full
// files — on the default incremental path (which never materializes a
// route) and on the Materialize path, which reconstructs every day
// through the DeltaApplier.
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
		lab, err := NewLabParallel(profiles, seed, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
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

	for _, p := range profiles {
		want := series[p.IXP]
		for _, lab := range []*Lab{fullLab, incLab, matLab} {
			got := lab.Series[p.IXP]
			if len(got) != len(want) {
				t.Fatalf("%s: series length %d, want %d", p.IXP, len(got), len(want))
			}
			for d := range got {
				if got[d].Date != want[d].Date {
					t.Errorf("%s day %d: date %q, want %q", p.IXP, d, got[d].Date, want[d].Date)
				}
			}
		}
		// The incremental chain never materializes a route.
		for _, s := range incLab.Series[p.IXP] {
			if s.Routes != nil {
				t.Errorf("%s %s: incremental chain materialized routes", p.IXP, s.Date)
			}
		}
		// The applier path reconstructs the exact snapshots.
		for d, s := range matLab.Series[p.IXP] {
			if d > 0 && !reflect.DeepEqual(s, want[d]) {
				t.Errorf("%s day %d: applier-reconstructed snapshot diverges", p.IXP, d)
			}
		}
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
	lab, err := NewLabParallel(profiles, 7, 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.LoadSnapshotDir(chainDir); err == nil {
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
	files, err := ListDir(dir, true)
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
	if len(lab.Series[ixp]) != 6 || len(before.Series[ixp]) != 5 || lab.Series[ixp][4] != before.Series[ixp][4] {
		t.Fatalf("landed day: series %d days (predecessor %d), earlier days not shared", len(lab.Series[ixp]), len(before.Series[ixp]))
	}
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
// tried again while the file stays as it is; and both days are picked
// up once a later listing makes them loadable. A
// materializing lab re-folds instead of advancing but ends up the same.
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
		// decodes, so applying it fails partway through; b's day 4 is
		// held back, so day 5 arrives before its predecessor.
		if err := os.WriteFile(path(a, 5), append(whole[:len(whole)-3:len(whole)-3], 0xff, 0xff, 0xff), 0o644); err != nil {
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

// TestLabHoldsItsIndexes pins who builds an index: the lab's builder,
// once per IXP, before any experiment runs. A lab built each of the
// three ways — generated, loaded off columns and deltas, loaded
// materialized — holds the index of every profile's latest day, and a
// full `-exp all` over it builds none: the generated and the
// materialized lab paid one "routes" build per IXP up front, the
// default load none at all (its days come off columns and deltas).
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
		{"generated", func() (*Lab, error) { return NewLabParallel(profiles, seed, scale, 2) }, 4, 0, 0},
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
				if ix := lab.Indexes[p.IXP]; ix == nil || ix.Snapshot() != lab.Snapshots[p.IXP] {
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
