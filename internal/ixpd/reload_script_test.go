package ixpd

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/mrt"
	"ixplight/internal/report"
)

// The differential oracle for the incremental loader: a seeded script
// mutates a dataset directory the way collectors, operators and
// accidents do, and after every step a server that has been reloading
// all along must answer every endpoint exactly like a server that loads
// the directory for the first time.

const (
	scriptScale = 0.002
	scriptDays  = 9 // chain days in the pool, per IXP
	scriptStart = 4 // chain days in the directory when a script starts
)

// scriptPool is the material a script draws from, generated once per
// process: per IXP the canonical chain (day 0 as .bin, later days as
// .delta), every day as a standalone .bin and .mrt, and an alien
// chain — same IXP and dates from another seed, so its files carry
// plausible headers and the wrong digests.
type scriptPool struct {
	profiles []ixpgen.Profile
	dir      string
	dates    map[string][]string
}

var (
	poolOnce sync.Once
	pool     *scriptPool
	poolErr  error
)

func getScriptPool(t testing.TB) *scriptPool {
	t.Helper()
	poolOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ixpd-script-pool-")
		if err != nil {
			poolErr = err
			return
		}
		pool = &scriptPool{profiles: ixpgen.BigFour(), dir: dir, dates: map[string][]string{}}
		for _, p := range pool.profiles {
			for _, kind := range []struct {
				sub  string
				seed int64
			}{{"canon", 11}, {"alien", 12}} {
				var enc *collector.DeltaEncoder
				sub := filepath.Join(dir, kind.sub)
				poolErr = ixpgen.EvolveSeries(p, ixpgen.TemporalOptions{Days: scriptDays, Seed: kind.seed, Scale: scriptScale}, 0.05,
					func(day int, snap *collector.Snapshot) error {
						if kind.sub == "canon" {
							pool.dates[p.IXP] = append(pool.dates[p.IXP], snap.Date)
							full := filepath.Join(dir, "full")
							if _, err := collector.SaveSnapshot(full, snap, collector.CodecBinary); err != nil {
								return err
							}
							err := collector.AtomicWrite(collector.DatasetPath(full, snap, collector.MRTExt), func(w io.Writer) error {
								return mrt.WriteRIB(w, snap)
							})
							if err != nil {
								return err
							}
						}
						if day == 0 {
							if _, err := collector.SaveSnapshot(sub, snap, collector.CodecBinary); err != nil {
								return err
							}
							var err error
							enc, err = collector.NewDeltaEncoder(snap)
							return err
						}
						buf, err := enc.Encode(snap)
						if err != nil {
							return err
						}
						return os.WriteFile(filepath.Join(sub, snap.IXP+"-"+snap.Date+collector.DeltaExt), buf, 0o644)
					})
				if poolErr != nil {
					return
				}
			}
		}
	})
	if poolErr != nil {
		t.Fatal(poolErr)
	}
	return pool
}

// scriptWorld is one dataset directory under mutation.
type scriptWorld struct {
	t        testing.TB
	pool     *scriptPool
	profiles []ixpgen.Profile
	dir      string
	clock    time.Time // source of distinct mtimes for touch
	temps    int
}

func newScriptWorld(t testing.TB, nIXPs int) *scriptWorld {
	w := &scriptWorld{t: t, pool: getScriptPool(t), dir: t.TempDir(), clock: time.Now().Add(time.Hour)}
	w.profiles = w.pool.profiles[:nIXPs]
	for _, p := range w.profiles {
		w.put("canon", w.base(p.IXP))
		for d := 1; d < scriptStart; d++ {
			w.put("canon", w.delta(p.IXP, d))
		}
	}
	return w
}

func (w *scriptWorld) base(ixp string) string { return ixp + "-" + w.pool.dates[ixp][0] + ".bin" }
func (w *scriptWorld) delta(ixp string, day int) string {
	return ixp + "-" + w.pool.dates[ixp][day] + collector.DeltaExt
}

// put lands pool file sub/name in the dataset directory the way a
// collector does: one atomic write.
func (w *scriptWorld) put(sub, name string) {
	w.t.Helper()
	data, err := os.ReadFile(filepath.Join(w.pool.dir, sub, name))
	if err != nil {
		w.t.Fatal(err)
	}
	w.write(name, data)
}

func (w *scriptWorld) write(name string, data []byte) {
	w.t.Helper()
	err := collector.AtomicWrite(filepath.Join(w.dir, name), func(out io.Writer) error {
		_, err := out.Write(data)
		return err
	})
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *scriptWorld) remove(name string) {
	w.t.Helper()
	if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
		w.t.Fatal(err)
	}
}

func (w *scriptWorld) has(name string) bool {
	_, err := os.Stat(filepath.Join(w.dir, name))
	return err == nil
}

// present lists the chain days of ixp whose delta file is in the
// directory (whatever its bytes), ascending.
func (w *scriptWorld) present(ixp string) []int {
	var days []int
	for d := 1; d < scriptDays; d++ {
		if w.has(w.delta(ixp, d)) {
			days = append(days, d)
		}
	}
	return days
}

// Script ops. Every op is defined on every directory state: where its
// target is missing it falls back to something that still changes the
// directory (or to nothing), so a fuzzer's bytes always mean a script.
const (
	opAppend     = iota // land the next chain day
	opAppendTwo         // land the next two chain days before one reload
	opRemoveTip         // take the newest chain day out
	opRemoveMid         // take a mid-chain day out: its successors lose their base
	opRewrite           // replace a chain day with the alien chain's (wrong digests)
	opTouch             // move a file's mtime, bytes unchanged
	opSwapBase          // replace the base .bin with the alien base, or put it back
	opStandalone        // add (or remove) a standalone .bin / .mrt day
	opTempFile          // drop a dot-prefixed temp file, as a collector mid-write does
	opTruncate          // cut a chain day short
	opCorrupt           // break a chain day's last op, header intact
	opSkipAhead         // land day N+2 before day N+1
	opHeal              // put every canonical file up to the tip back
	numOps
)

var opNames = [numOps]string{"append", "append-two", "remove-tip", "remove-mid", "rewrite", "touch",
	"swap-base", "standalone", "temp-file", "truncate", "corrupt", "skip-ahead", "heal"}

// step applies one op; arg picks the IXP and the target day.
func (w *scriptWorld) step(op, arg int) string {
	w.t.Helper()
	ixp := w.profiles[arg%len(w.profiles)].IXP
	arg /= len(w.profiles)
	days := w.present(ixp)
	tip := 0
	if len(days) > 0 {
		tip = days[len(days)-1]
	}
	pick := func() (int, bool) {
		if len(days) == 0 {
			return 0, false
		}
		return days[arg%len(days)], true
	}
	desc := fmt.Sprintf("%s %s", opNames[op], ixp)
	switch op {
	case opAppend, opAppendTwo:
		if tip+1 >= scriptDays {
			w.remove(w.delta(ixp, tip))
			return desc + " (pool exhausted: removed the tip)"
		}
		w.put("canon", w.delta(ixp, tip+1))
		if op == opAppendTwo && tip+2 < scriptDays {
			w.put("canon", w.delta(ixp, tip+2))
		}
	case opRemoveTip:
		if tip > 0 {
			w.remove(w.delta(ixp, tip))
		}
	case opRemoveMid:
		if d, ok := pick(); ok {
			w.remove(w.delta(ixp, d))
			desc += fmt.Sprintf(" day %d", d)
		}
	case opRewrite:
		if d, ok := pick(); ok {
			w.put("alien", w.delta(ixp, d))
			desc += fmt.Sprintf(" day %d", d)
		}
	case opTouch:
		name := w.base(ixp)
		if d, ok := pick(); ok && arg%3 != 0 {
			name = w.delta(ixp, d)
		}
		if w.has(name) {
			w.clock = w.clock.Add(time.Second)
			if err := os.Chtimes(filepath.Join(w.dir, name), w.clock, w.clock); err != nil {
				w.t.Fatal(err)
			}
		}
		desc += " " + name
	case opSwapBase:
		canon, err := os.ReadFile(filepath.Join(w.pool.dir, "canon", w.base(ixp)))
		if err != nil {
			w.t.Fatal(err)
		}
		cur, _ := os.ReadFile(filepath.Join(w.dir, w.base(ixp)))
		if string(cur) == string(canon) {
			w.put("alien", w.base(ixp))
		} else {
			w.put("canon", w.base(ixp))
		}
	case opStandalone:
		d := 1 + arg%(scriptDays-1)
		name := ixp + "-" + w.pool.dates[ixp][d] + ".bin"
		if arg%2 == 1 {
			name = ixp + "-" + w.pool.dates[ixp][d] + collector.MRTExt
		}
		if w.has(name) {
			w.remove(name)
		} else {
			w.put("full", name)
		}
		desc += " " + name
	case opTempFile:
		w.temps++
		w.write(fmt.Sprintf(".%s-%d.tmp", ixp, w.temps), []byte("half a snapshot"))
	case opTruncate, opCorrupt:
		d, ok := pick()
		if !ok {
			break
		}
		data, err := os.ReadFile(filepath.Join(w.dir, w.delta(ixp, d)))
		if err != nil {
			w.t.Fatal(err)
		}
		if op == opTruncate {
			data = data[:len(data)/2]
		} else if len(data) > 3 {
			data = append(data[:len(data)-3:len(data)-3], 0xff, 0xff, 0xff)
		}
		w.write(w.delta(ixp, d), data)
		desc += fmt.Sprintf(" day %d", d)
	case opSkipAhead:
		if tip+2 < scriptDays {
			w.put("canon", w.delta(ixp, tip+2))
		}
	case opHeal:
		w.put("canon", w.base(ixp))
		for d := 1; d <= tip; d++ {
			w.put("canon", w.delta(ixp, d))
		}
	}
	return desc
}

// scriptPaths is the query universe the two servers are compared on:
// /v1/meta, every experiment, every series, and per IXP a few per-AS
// and per-community lookups sampled from the fresh server's /v1/meta.
func scriptPaths(t testing.TB, fresh *Server, profiles []ixpgen.Profile, experiments []string) []string {
	t.Helper()
	paths := []string{"/v1/meta"}
	for _, name := range experiments {
		paths = append(paths, "/v1/experiments/"+name)
	}
	for _, p := range profiles {
		paths = append(paths, "/v1/series/"+p.IXP)
	}
	doc, err := fresh.metaDoc(fresh.gen.Load())
	if err != nil {
		t.Fatal(err)
	}
	for _, mi := range doc.(*MetaDoc).IXPs {
		for i, asn := range mi.SampleASNs {
			if i < 2 {
				paths = append(paths, fmt.Sprintf("/v1/as/%d", asn))
			}
		}
		for i, c := range mi.SampleCommunities {
			if i < 2 {
				paths = append(paths, "/v1/community/"+c+"?ixp="+mi.IXP)
			}
		}
	}
	return paths
}

// comparableBody strips what legitimately differs between two servers
// on the same directory: /v1/meta's generation number and load time.
func comparableBody(t testing.TB, path, body string) string {
	t.Helper()
	if path != "/v1/meta" {
		return body
	}
	var meta MetaDoc
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		t.Fatalf("/v1/meta: %v: %s", err, body)
	}
	meta.Generation, meta.LoadedAt = 0, time.Time{}
	out, err := json.Marshal(&meta)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// checkSameAsFresh reloads inc and compares it, endpoint by endpoint,
// with a server loading the directory for the first time.
func checkSameAsFresh(t testing.TB, inc *Server, cfg Config, experiments []string, after string) {
	t.Helper()
	if _, err := inc.Reload(); err != nil {
		t.Fatalf("after %s: reload: %v", after, err)
	}
	fresh := New(cfg)
	if err := fresh.Load(); err != nil {
		// Nothing in the directory loads: the reloading server must be
		// serving no day either, and naming the same first casualty.
		gen := inc.gen.Load()
		if len(gen.lab.Series) != 0 || len(gen.load.Skipped) == 0 || gen.load.Skipped[0].Error() != err.Error() {
			t.Fatalf("after %s: fresh load fails with %v; reloaded server serves %d IXPs, skipped %v",
				after, err, len(gen.lab.Series), gen.load.Skipped)
		}
		return
	}
	if a, b := inc.gen.Load().digest, fresh.gen.Load().digest; a != b {
		t.Fatalf("after %s: digests differ: reloaded %s, fresh %s", after, a, b)
	}
	for _, path := range scriptPaths(t, fresh, cfg.Profiles, experiments) {
		wantCode, wantTag, want := doGet(t, fresh.Handler(), path, "")
		gotCode, gotTag, got := doGet(t, inc.Handler(), path, "")
		if gotCode != wantCode || gotTag != wantTag || comparableBody(t, path, got) != comparableBody(t, path, want) {
			t.Fatalf("after %s: GET %s differs\nreloaded: %d %s %s\nfresh:    %d %s %s",
				after, path, gotCode, gotTag, got, wantCode, wantTag, want)
		}
	}
}

// scriptCoverage counts, over one script, the reloads that took each
// way through the loader.
type scriptCoverage struct{ advanced, refolded, skipping int }

// runReloadScript drives one reloading server through a script of
// steps ops drawn from next, checking it against a fresh load after
// every step.
func runReloadScript(t testing.TB, nIXPs int, materialize bool, parallel, steps int, experiments []string, next func() (op, arg int)) (cov scriptCoverage) {
	w := newScriptWorld(t, nIXPs)
	cfg := Config{
		Profiles:       w.profiles,
		SnapshotDir:    w.dir,
		Seed:           11,
		Scale:          scriptScale,
		Parallel:       parallel,
		Materialize:    materialize,
		ReloadInterval: -1,
	}
	inc := New(cfg)
	if err := inc.Load(); err != nil {
		t.Fatal(err)
	}
	var trail []string
	for i := 0; i < steps; i++ {
		op, arg := next()
		trail = append(trail, w.step(op, arg))
		if len(trail) > 6 {
			trail = trail[1:]
		}
		checkSameAsFresh(t, inc, cfg, experiments, fmt.Sprintf("step %d [… %s]", i, strings.Join(trail, "; ")))
		rep := inc.gen.Load().load
		switch {
		case rep.Advanced > 0:
			cov.advanced++
		case rep.Rebuilt > 0:
			cov.refolded++
		}
		if len(rep.Skipped) > 0 {
			cov.skipping++
		}
	}
	return cov
}

func seededScript(seed int64) func() (int, int) {
	rng := rand.New(rand.NewSource(seed))
	return func() (int, int) {
		// Appends are what a healthy collector does all day; weigh them
		// up so chains also grow between accidents.
		if rng.Intn(4) == 0 {
			return opAppend, rng.Intn(1 << 16)
		}
		return rng.Intn(numOps), rng.Intn(1 << 16)
	}
}

// visibility is left out of the per-step comparison: it simulates route
// servers from the profiles alone and reads no loaded day, so it cannot
// differ, and it costs more than the rest of the universe together.
func scriptExperiments() []string {
	var names []string
	for _, name := range report.ExperimentNames {
		if name != "visibility" {
			names = append(names, name)
		}
	}
	return names
}

// tier1Scripts is the tier-1 cut of the oracle: two IXPs, a few dozen
// steps per loader configuration.
var tier1Scripts = []struct {
	materialize bool
	parallel    int
	seed        int64
	steps       int
}{{false, 2, 1, 24}, {false, 1, 2, 24}, {true, 2, 3, 12}, {true, 1, 4, 12}}

func TestReloadScript(t *testing.T) {
	for _, c := range tier1Scripts {
		t.Run(fmt.Sprintf("materialize=%v/parallel=%d", c.materialize, c.parallel), func(t *testing.T) {
			cov := runReloadScript(t, 2, c.materialize, c.parallel, c.steps, scriptExperiments(), seededScript(c.seed))
			// A script that only ever re-folds (or never does) compares
			// the full load with itself.
			if cov.refolded == 0 || cov.skipping == 0 || !c.materialize && cov.advanced == 0 {
				t.Errorf("script coverage %+v over %d steps: want advancing, re-folding and skipping reloads", cov, c.steps)
			}
		})
	}
}

// TestReloadScriptLong is the full oracle — the big four, 200 steps per
// configuration, every experiment including visibility. It runs only
// when named: `go test ./internal/ixpd -run TestReloadScriptLong`
// (make soak-long).
func TestReloadScriptLong(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestReloadScriptLong") {
		t.Skip("runs only when named with -run TestReloadScriptLong")
	}
	for _, materialize := range []bool{false, true} {
		for _, parallel := range []int{1, 2} {
			t.Run(fmt.Sprintf("materialize=%v/parallel=%d", materialize, parallel), func(t *testing.T) {
				cov := runReloadScript(t, 4, materialize, parallel, 200, report.ExperimentNames, seededScript(int64(100+parallel)))
				t.Logf("reloads by kind over 200 steps: %+v", cov)
			})
		}
	}
}

// FuzzReloadScript lets the fuzzer write the script: each input byte
// pair is one step. The corpus is seeded with the seeded script's own
// first steps and with the sequences that broke earlier designs on
// paper (remove → append on a shared tip, N+2 before N+1, a corrupt tip
// followed by its repair).
func FuzzReloadScript(f *testing.F) {
	next := seededScript(1)
	var seed []byte
	for i := 0; i < 16; i++ {
		op, arg := next()
		seed = append(seed, byte(op), byte(arg))
	}
	f.Add(seed)
	f.Add([]byte{opAppend, 0, opRemoveTip, 0, opAppend, 0, opRemoveTip, 0, opAppend, 0})
	f.Add([]byte{opSkipAhead, 1, opAppend, 1, opRemoveMid, 3, opHeal, 1})
	f.Add([]byte{opAppend, 0, opCorrupt, 6, opAppend, 1, opHeal, 0, opTruncate, 2, opTouch, 2, opHeal, 0})
	f.Add([]byte{opSwapBase, 0, opStandalone, 5, opTempFile, 0, opSwapBase, 0, opRewrite, 2, opAppendTwo, 0})
	experiments := []string{"summary", "table3", "fig5"}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		i := 0
		runReloadScript(t, 2, len(script)%2 == 1, 2, len(script)/2, experiments, func() (int, int) {
			op, arg := int(script[i])%numOps, int(script[i+1])
			i += 2
			return op, arg
		})
	})
}

// TestScriptOpsCovered keeps the seeded scripts honest: between them
// they must exercise every op.
func TestScriptOpsCovered(t *testing.T) {
	seen := map[int]bool{}
	for _, c := range tier1Scripts {
		next := seededScript(c.seed)
		for i := 0; i < c.steps; i++ {
			op, _ := next()
			seen[op] = true
		}
	}
	var missing []string
	for op := 0; op < numOps; op++ {
		if !seen[op] {
			missing = append(missing, opNames[op])
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("the tier-1 scripts never run: %v", missing)
	}
}

// TestMain removes the script pool, which outlives any one test.
func TestMain(m *testing.M) {
	code := m.Run()
	if pool != nil {
		os.RemoveAll(pool.dir)
	}
	os.Exit(code)
}
