package ixpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// writeDeltaSeries writes days [0, upto) of an evolved series into
// dir — day 0 as a full binary snapshot, later days as delta files —
// and returns the encoded delta for day upto (the "next collection
// day" a reload test lands later) with its destination path.
func writeDeltaSeries(t testing.TB, dir string, p ixpgen.Profile, days, upto int) (nextPath string, nextDelta []byte) {
	t.Helper()
	var enc *collector.DeltaEncoder
	err := ixpgen.EvolveSeries(p, ixpgen.TemporalOptions{Days: days, Seed: 11, Scale: 0.005}, 0.05,
		func(day int, snap *collector.Snapshot) error {
			if day == 0 {
				if _, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary); err != nil {
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
			path := filepath.Join(dir, fmt.Sprintf("%s-%s%s", snap.IXP, snap.Date, collector.DeltaExt))
			if day >= upto {
				nextPath, nextDelta = path, buf
				return nil
			}
			return collector.AtomicWrite(path, func(w io.Writer) error {
				_, werr := w.Write(buf)
				return werr
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	return nextPath, nextDelta
}

// TestHotReload swaps a new delta day into the dataset directory while
// requests are in flight: the poller installs a fresh generation, no
// request is dropped, requests that pinned the old generation still
// complete on it, and new requests see the new day.
func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	p := ixpgen.BigFour()[0]
	day3Path, day3Delta := writeDeltaSeries(t, dir, p, 4, 3)

	s := New(Config{
		Profiles:       []ixpgen.Profile{p},
		SnapshotDir:    dir,
		ReloadInterval: 10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	seriesDays := func() int {
		var doc SeriesDoc
		code, _, body := doGet(t, h, "/v1/series/"+p.IXP, "")
		if code != http.StatusOK {
			t.Fatalf("/v1/series: code %d: %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Days)
	}
	if got := seriesDays(); got != 3 {
		t.Fatalf("initial series has %d days, want 3", got)
	}
	oldGen := s.gen.Load()
	_, oldEtag, _ := doGet(t, h, "/v1/meta", "")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchReload(ctx)

	// Clients hammer the API across the swap; every response must be a
	// 200 (or 304 for revalidations) — a reload never drops a request.
	var (
		stop     atomic.Bool
		dropped  atomic.Int64
		served   atomic.Int64
		clientWG sync.WaitGroup
	)
	paths := []string{"/v1/meta", "/v1/series/" + p.IXP}
	for w := 0; w < 2; w++ {
		clientWG.Add(1)
		go func(w int) {
			defer clientWG.Done()
			for i := 0; !stop.Load(); i++ {
				req := httptest.NewRequest(http.MethodGet, paths[(w+i)%len(paths)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				served.Add(1)
				if rec.Code != http.StatusOK {
					dropped.Add(1)
				}
			}
		}(w)
	}

	// Land the next collection day mid-flight, the way a collector
	// would: one atomic write into the polled directory.
	time.Sleep(20 * time.Millisecond)
	if err := collector.AtomicWrite(day3Path, func(w io.Writer) error {
		_, err := w.Write(day3Delta)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.gen.Load() == oldGen {
		if time.Now().After(deadline) {
			t.Fatal("reload never installed a new generation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	clientWG.Wait()

	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d of %d responses dropped across the swap", n, served.Load())
	}
	if got := seriesDays(); got != 4 {
		t.Fatalf("post-reload series has %d days, want 4", got)
	}
	newGen := s.gen.Load()
	if newGen.id == oldGen.id || newGen.digest == oldGen.digest {
		t.Fatalf("generation did not advance: %d/%s -> %d/%s", oldGen.id, oldGen.digest, newGen.id, newGen.digest)
	}

	// The new dataset carries new ETags, so stale client caches
	// revalidate to 200 instead of a false 304.
	if code, newEtag, _ := doGet(t, h, "/v1/meta", oldEtag); code != http.StatusOK || newEtag == oldEtag {
		t.Fatalf("stale etag after reload: code %d etag %q (old %q)", code, newEtag, oldEtag)
	}

	// A request that pinned the old generation before the swap still
	// completes against it: the old lab and cache are intact.
	doc, err := s.seriesDoc(oldGen, p.IXP)
	if err != nil {
		t.Fatalf("old-generation compute after swap: %v", err)
	}
	if got := len(doc.Days); got != 3 {
		t.Fatalf("old generation now serves %d days, want its original 3", got)
	}
	if _, ok := oldGen.responses.cached("/v1/series/" + p.IXP); !ok {
		t.Fatal("old generation's response cache was torn down while pinned")
	}

	// An unchanged directory never swaps.
	if swapped, err := s.Reload(); err != nil || swapped {
		t.Fatalf("reload on unchanged dir: swapped=%v err=%v", swapped, err)
	}
}

// landFile writes data to path the way a collector does.
func landFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := collector.AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReloadWorkIsProportional pins what a reload costs. With four
// 21-day chains loaded, landing one day on one of them opens one file,
// decodes none and runs exactly one Advance — the ixpd.reload span says
// so — and allocates no more than the directory listing, that Advance
// plus the Materialize that readies the landed day to serve, and the
// fixed cost of a new generation, so the budget follows the day's
// index as it gets cheaper. Taking the day out again re-folds that
// IXP from its base (one decode, 20 advances) and leaves the other three
// alone.
func TestReloadWorkIsProportional(t *testing.T) {
	const days = 21
	profiles := ixpgen.BigFour()
	dir := t.TempDir()
	var tipPath string
	var tipDelta []byte
	for i, p := range profiles {
		path, delta := writeDeltaSeries(t, dir, p, days+1, days)
		if i == 2 {
			tipPath, tipDelta = path, delta
		}
	}
	reg := telemetry.New()
	sink := &telemetry.RecordingSink{}
	reg.SetSpanSink(sink)
	s := New(Config{Profiles: profiles, SnapshotDir: dir, ReloadInterval: -1, Telemetry: reg})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	// A second daemon on the same directory, uninstrumented like the
	// benchmark's, is the one whose allocations are counted.
	plain := New(Config{Profiles: profiles, SnapshotDir: dir, ReloadInterval: -1})
	if err := plain.Load(); err != nil {
		t.Fatal(err)
	}
	lastReload := func() telemetry.SpanRecord {
		spans := sink.Named("ixpd.reload")
		return telemetry.Record(spans[len(spans)-1])
	}
	wantAttrs := func(when string, want map[string]string) {
		t.Helper()
		rec := lastReload()
		for k, v := range want {
			if got := rec.Attr(k); got != v {
				t.Errorf("%s: ixpd.reload span has %s=%s, want %s", when, k, got, v)
			}
		}
	}
	reload := func() {
		t.Helper()
		if swapped, err := s.Reload(); err != nil || !swapped {
			t.Fatalf("reload: swapped=%v err=%v", swapped, err)
		}
	}
	counter := func(how string) int64 { return s.met.reloadDays.With(how).Value() }
	wantAttrs("initial load", map[string]string{"files_decoded": "4", "advances": "80", "days_rebuilt": "84", "days_reused": "0"})

	// One Advance on this chain's tip, and one listing, cost this much.
	// A listing costs a couple of objects more when a collection has
	// just emptied the runtime's pools, so the budget takes the most of
	// a few, each after a collection.
	var listing uint64
	for i := 0; i < 5; i++ {
		runtime.GC()
		listing = max(listing, mallocs(func() {
			if _, err := collector.ListDir(dir, true); err != nil {
				t.Fatal(err)
			}
		}))
	}
	dr, err := collector.NewDeltaReader(tipDelta)
	if err != nil {
		t.Fatal(err)
	}
	var advance uint64

	advancedBefore := counter("advanced")
	landFile(t, tipPath, tipDelta)
	reload()
	reloadAllocs := mallocs(func() {
		if swapped, err := plain.Reload(); err != nil || !swapped {
			t.Errorf("reload: swapped=%v err=%v", swapped, err)
		}
	})
	wantAttrs("one landed day", map[string]string{
		"files_opened": "1", "files_decoded": "0", "advances": "1",
		"days_reused": "84", "days_advanced": "1", "days_rebuilt": "0", "files_skipped": "0",
	})
	if got := counter("advanced") - advancedBefore; got != 1 {
		t.Errorf("ixplight_ixpd_reload_days_total{how=advanced} moved by %d, want 1", got)
	}

	if err := os.Remove(tipPath); err != nil {
		t.Fatal(err)
	}
	rebuiltBefore := counter("rebuilt")
	reload()
	wantAttrs("removed tip", map[string]string{
		"files_opened": "20", "files_decoded": "1", "advances": "20",
		"days_reused": "63", "days_advanced": "0", "days_rebuilt": "21",
	})
	if got := counter("rebuilt") - rebuiltBefore; got != 21 {
		t.Errorf("ixplight_ixpd_reload_days_total{how=rebuilt} moved by %d, want 21", got)
	}

	// The re-folded tip is the chain state's owner: measure one Advance
	// on it directly, and the Materialize the served day takes, then let
	// the daemon land the same day again.
	ix := s.gen.Load().lab.Indexes[profiles[2].IXP]
	advance = mallocs(func() {
		next, err := ix.Advance(dr)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Materialize(); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Logf("landing one day allocated %d objects; one Advance + Materialize %d, the listing %d", reloadAllocs, advance, listing)
	// perGeneration is what installing a generation allocates beyond the
	// listing and the landed day's index — the new lab, response cache
	// and meta document — and does not move with the index's own cost:
	// 615 − 94 − 439 with the refcounts in runtime maps, 577 − 56 − 439
	// in tables, 578 − 57 − 439 with the day materialized apart.
	// slack absorbs the landing's own run-to-run jitter (577 to 581
	// seen); a cost per loaded day (84 of them) or per route is far
	// above it.
	const perGeneration, slack = 82, 8
	if budget := listing + advance + perGeneration + slack; reloadAllocs > budget {
		t.Errorf("landing one day allocated %d objects; budget the listing (%d) + one Advance + Materialize (%d) + one generation (%d) + slack (%d) = %d",
			reloadAllocs, listing, advance, perGeneration, slack, budget)
	}
}

// TestReloadIgnoresCollectorLeftovers: `collect` rewrites trace.jsonl
// and leaves a checkpoint in the directory it fills. They are not
// dataset files: they load as nothing, and rewriting one moves neither
// the dataset listing nor the serving generation.
func TestReloadIgnoresCollectorLeftovers(t *testing.T) {
	dir := t.TempDir()
	p := ixpgen.BigFour()[0]
	writeDeltaSeries(t, dir, p, 3, 3)
	tracePath := filepath.Join(dir, "trace.jsonl")
	landFile(t, tracePath, []byte(`{"name":"collector.crawl"}`+"\n"))
	landFile(t, filepath.Join(dir, "checkpoint-2021-07-19.json"), []byte(`{"done":[]}`))

	s := New(Config{Profiles: []ixpgen.Profile{p}, SnapshotDir: dir, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	if gen := s.gen.Load(); len(gen.lab.Series) != 1 || len(gen.lab.Series[p.IXP]) != 3 || len(gen.load.Skipped) != 0 {
		t.Fatalf("loaded %d IXPs (%s: %d days), skipped %v; want the one 3-day chain and nothing skipped",
			len(gen.lab.Series), p.IXP, len(gen.lab.Series[p.IXP]), gen.load.Skipped)
	}
	before, err := collector.ListDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	landFile(t, tracePath, []byte(`{"name":"collector.crawl"}`+"\n"+`{"name":"lg.request"}`+"\n"))
	if after, err := collector.ListDir(dir, true); err != nil || !slices.Equal(after, before) {
		t.Errorf("rewriting trace.jsonl moved the dataset listing (err %v): %v, was %v", err, after, before)
	}
	if swapped, err := s.Reload(); err != nil || swapped {
		t.Errorf("rewriting trace.jsonl: swapped=%v err=%v, want no new generation", swapped, err)
	}
}

// TestDatasetOfFewerIXPs: a daemon serving a directory that holds days
// of DE-CIX alone, at the default big-four profiles, reports on DE-CIX
// alone. It generates no series for the IXPs the dataset lacks — Table
// 3 names only DE-CIX — and every point-in-time experiment answers 200
// over the one IXP it has, as /v1/meta lists only DE-CIX.
func TestDatasetOfFewerIXPs(t *testing.T) {
	dir := t.TempDir()
	writeDeltaSeries(t, dir, *ixpgen.ProfileByName("DE-CIX"), 3, 3)
	s := New(Config{Profiles: ixpgen.BigFour(), SnapshotDir: dir, Scale: 0.005, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, name := range report.ExperimentNames {
		code, _, body := doGet(t, h, "/v1/experiments/"+name, "")
		if code != http.StatusOK {
			t.Errorf("%s: status %d: %s", name, code, body)
			continue
		}
		for _, p := range ixpgen.BigFour() {
			if p.IXP != "DE-CIX" && strings.Contains(body, p.IXP) {
				t.Errorf("%s reports on %s, of which the dataset holds no day:\n%s", name, p.IXP, body)
			}
		}
	}
	if code, _, body := doGet(t, h, "/v1/experiments/table3", ""); code != http.StatusOK || !strings.Contains(body, "DE-CIX-v4") {
		t.Errorf("table3: status %d, want DE-CIX's rows: %s", code, body)
	}
}

// TestETagNamesTheConfiguration: in dir mode the IXPs served, the seed
// and the scale shape the bodies as much as the files do (Table 1 scales
// its member totals, visibility simulates its world from all three), so
// daemons that differ in any of them over one directory never share an
// ETag: where their bodies differ their tags differ, and each answers
// the other's tag with a 200, not a 304 that would keep the other's
// body.
func TestETagNamesTheConfiguration(t *testing.T) {
	dir := t.TempDir()
	de, ams := *ixpgen.ProfileByName("DE-CIX"), *ixpgen.ProfileByName("AMS-IX")
	for _, p := range []ixpgen.Profile{de, ams} {
		writeDeltaSeries(t, dir, p, 2, 2)
	}
	base := Config{Profiles: []ixpgen.Profile{de, ams}, SnapshotDir: dir, Seed: 1, Scale: 0.005, ReloadInterval: -1}
	variants := map[string]func(*Config){
		"profiles": func(c *Config) { c.Profiles = []ixpgen.Profile{ams, de} },
		"seed":     func(c *Config) { c.Seed = 2 },
		"scale":    func(c *Config) { c.Scale = 0.01 },
	}
	paths := []string{"/v1/experiments/table1", "/v1/experiments/visibility"}
	serve := func(cfg Config) http.Handler {
		s := New(cfg)
		if err := s.Load(); err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	h := serve(base)
	for name, vary := range variants {
		cfg := base
		vary(&cfg)
		other := serve(cfg)
		differ := 0
		for _, path := range paths {
			code, tag, body := doGet(t, h, path, "")
			otherCode, otherTag, otherBody := doGet(t, other, path, "")
			if code != http.StatusOK || otherCode != http.StatusOK {
				t.Fatalf("%s: %s answers %d and %d", name, path, code, otherCode)
			}
			if body != otherBody {
				differ++
				if tag == otherTag {
					t.Errorf("%s: %s answers two bodies under one ETag %s", name, path, tag)
				}
			}
			if code, _, _ := doGet(t, other, path, tag); code != http.StatusOK {
				t.Errorf("%s: %s answers the other configuration's ETag with %d, want 200", name, path, code)
			}
		}
		if differ == 0 {
			t.Errorf("%s: no body differs, so the case checks nothing", name)
		}
	}
}

// contentPaths is every /v1 path of s but /v1/meta, the one whose body
// names the generation: each experiment, each series, and the sampled
// per-AS and per-community lookups.
func contentPaths(t testing.TB, s *Server, profiles []ixpgen.Profile) []string {
	t.Helper()
	return scriptPaths(t, s, profiles, report.ExperimentNames)[1:]
}

// TestSameBytesSameETags: a served byte is a function of the dataset's
// bytes, not of their place. One dataset — whose newest delta of one IXP
// is cut short, so /v1/meta lists a skipped file — copied byte for byte
// into two directories and served by two otherwise identical
// configurations, answers every path with one body under one ETag, and
// each server answers the other's ETag with a 304. That includes
// /v1/meta: both servers are at generation 1, and the skipped file's
// reason names the file, never the directory it lies in.
func TestSameBytesSameETags(t *testing.T) {
	root := t.TempDir()
	dirA, dirB := filepath.Join(root, "fa"), filepath.Join(root, "fb")
	for _, dir := range []string{dirA, dirB} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	profiles := ixpgen.BigFour()[:2]
	cutPath, cut := writeDeltaSeries(t, dirA, profiles[0], 4, 3)
	landFile(t, cutPath, cut[:100])
	writeDeltaSeries(t, dirA, profiles[1], 3, 3)
	entries, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		landFile(t, filepath.Join(dirB, e.Name()), data)
	}
	serve := func(dir string) *Server {
		s := New(Config{Profiles: profiles, SnapshotDir: dir, Seed: 1, Scale: 0.005, ReloadInterval: -1})
		if err := s.Load(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := serve(dirA), serve(dirB)
	_, digestA := a.Generation()
	if _, digestB := b.Generation(); digestA != digestB {
		t.Fatalf("copies of one dataset have two digests, %s and %s", digestA, digestB)
	}
	if sk := a.gen.Load().load.Skipped; len(sk) != 1 || sk[0].File != filepath.Base(cutPath) {
		t.Fatalf("skipped %v, want the cut delta alone", sk)
	}
	for _, path := range scriptPaths(t, a, profiles, report.ExperimentNames) {
		codeA, tagA, bodyA := doGet(t, a.Handler(), path, "")
		codeB, tagB, bodyB := doGet(t, b.Handler(), path, "")
		if codeA != http.StatusOK || codeB != http.StatusOK || bodyA != bodyB || tagA != tagB {
			t.Errorf("%s: %d %s and %d %s, bodies equal %v; want one 200 body under one ETag\n%s\n%s",
				path, codeA, tagA, codeB, tagB, bodyA == bodyB, bodyA, bodyB)
			continue
		}
		if code, _, _ := doGet(t, b.Handler(), path, tagA); code != http.StatusNotModified {
			t.Errorf("%s: the copy answers the original's ETag with %d, want 304", path, code)
		}
		if code, _, _ := doGet(t, a.Handler(), path, tagB); code != http.StatusNotModified {
			t.Errorf("%s: the original answers the copy's ETag with %d, want 304", path, code)
		}
	}
}

// TestMetaNamesNoLoadTime: /v1/meta's ETag hashes the dataset digest
// and the generation, so its body may hold nothing else that varies.
// Two servers over one directory, loaded in different seconds, both at
// generation 1, answer one body under one ETag.
func TestMetaNamesNoLoadTime(t *testing.T) {
	cfg := testConfig(t, Config{})
	first := New(cfg)
	if err := first.Load(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second + 10*time.Millisecond)))
	second := New(cfg)
	if err := second.Load(); err != nil {
		t.Fatal(err)
	}
	code1, tag1, body1 := doGet(t, first.Handler(), "/v1/meta", "")
	code2, tag2, body2 := doGet(t, second.Handler(), "/v1/meta", "")
	if code1 != http.StatusOK || code2 != http.StatusOK || tag1 != tag2 || body1 != body2 {
		t.Fatalf("two loads of one directory at generation 1: %d %s and %d %s; want one body under one ETag\n%s\n%s",
			code1, tag1, code2, tag2, body1, body2)
	}
}

// TestAbsentIXPIsOneNotFound: an IXP the dataset holds no day of —
// configured or not — is one answer on every endpoint that names an
// IXP: the same 404 with the same body. The IXP it does hold answers
// 200 on each.
func TestAbsentIXPIsOneNotFound(t *testing.T) {
	dir := t.TempDir()
	de := *ixpgen.ProfileByName("DE-CIX")
	writeDeltaSeries(t, dir, de, 2, 2)
	s := New(Config{Profiles: ixpgen.BigFour(), SnapshotDir: dir, Scale: 0.005, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var meta MetaDoc
	if _, _, body := doGet(t, h, "/v1/meta", ""); json.Unmarshal([]byte(body), &meta) != nil || len(meta.IXPs) != 1 {
		t.Fatalf("/v1/meta: %s", body)
	}
	asn, comm := meta.IXPs[0].SampleASNs[0], meta.IXPs[0].SampleCommunities[0]
	urls := func(ixp string) []string {
		return []string{
			"/v1/series/" + ixp,
			fmt.Sprintf("/v1/as/%d?ixp=%s", asn, ixp),
			"/v1/community/" + comm + "?ixp=" + ixp,
		}
	}
	for _, path := range urls(de.IXP) {
		if code, _, body := doGet(t, h, path, ""); code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", path, code, body)
		}
	}
	for _, ixp := range []string{"AMS-IX", "NOWHERE-IX"} {
		want := jsonBody(map[string]string{"error": fmt.Sprintf("unknown IXP %q", ixp)})
		for _, path := range urls(ixp) {
			if code, _, body := doGet(t, h, path, ""); code != http.StatusNotFound || body != string(want) {
				t.Errorf("%s: %d %s, want 404 %s", path, code, body, want)
			}
		}
	}
}

// TestTouchKeepsETags: moving every file's mtime reloads — the listing
// changed — into a generation with the same digest, so every content
// ETag a client holds still revalidates to 304, while /v1/meta, which
// names the generation, gets a new ETag.
func TestTouchKeepsETags(t *testing.T) {
	dir := t.TempDir()
	profiles := ixpgen.BigFour()[:2]
	for _, p := range profiles {
		writeDeltaSeries(t, dir, p, 3, 3)
	}
	s := New(Config{Profiles: profiles, SnapshotDir: dir, Seed: 1, Scale: 0.005, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	paths := contentPaths(t, s, profiles)
	tags := make([]string, len(paths))
	for i, path := range paths {
		var code int
		if code, tags[i], _ = doGet(t, h, path, ""); code != http.StatusOK {
			t.Fatalf("%s: %d", path, code)
		}
	}
	_, metaTag, _ := doGet(t, h, "/v1/meta", "")
	genBefore, digestBefore := s.Generation()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(time.Hour)
	for _, e := range entries {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), later, later); err != nil {
			t.Fatal(err)
		}
	}
	if swapped, err := s.Reload(); err != nil || !swapped {
		t.Fatalf("reload after the touch: swapped=%v err=%v, want a new generation", swapped, err)
	}
	if gen, digest := s.Generation(); gen == genBefore || digest != digestBefore {
		t.Fatalf("touch: generation %d → %d, digest %s → %s; want a new generation of the same digest",
			genBefore, gen, digestBefore, digest)
	}
	for i, path := range paths {
		if code, _, _ := doGet(t, h, path, tags[i]); code != http.StatusNotModified {
			t.Errorf("%s: the ETag from before the touch gets %d, want 304", path, code)
		}
	}
	if code, tag, _ := doGet(t, h, "/v1/meta", metaTag); code != http.StatusOK || tag == metaTag {
		t.Errorf("/v1/meta after the touch: %d under %s (was %s); want a 200 under a new ETag", code, tag, metaTag)
	}
}

// TestReloadListingRace: the generation is built from the one listing
// the poll took, and keeps it. A day that lands after the listing but
// before the load is not in that generation — whose listing therefore
// names exactly the files it serves — and the next poll picks it up with
// one more swap, not two.
func TestReloadListingRace(t *testing.T) {
	dir, staged := t.TempDir(), t.TempDir()
	p := ixpgen.BigFour()[0]
	writeDeltaSeries(t, staged, p, 5, 5)
	names, err := os.ReadDir(staged) // base, then days 1–4, in date order
	if err != nil || len(names) != 5 {
		t.Fatalf("staged chain: %v, %d files", err, len(names))
	}
	land := func(day int) {
		data, err := os.ReadFile(filepath.Join(staged, names[day].Name()))
		if err != nil {
			t.Fatal(err)
		}
		landFile(t, filepath.Join(dir, names[day].Name()), data)
	}
	for day := 0; day < 3; day++ {
		land(day)
	}

	s := New(Config{Profiles: []ixpgen.Profile{p}, SnapshotDir: dir, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	days := func() int { return len(s.gen.Load().lab.Series[p.IXP]) }

	land(3)
	s.afterList = func() { land(4) }
	if swapped, err := s.Reload(); err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	s.afterList = nil
	if got := days(); got != 4 {
		t.Fatalf("generation built from a 4-day listing serves %d days", got)
	}
	files5, err := collector.ListDir(dir, true) // the directory now holds 5 days
	if err != nil || len(files5) != 5 {
		t.Fatalf("listing after the late day: %v, %d files", err, len(files5))
	}
	if got := s.gen.Load().files; len(got) != 4 || !slices.Equal(got, files5[:4]) {
		t.Fatalf("generation keeps the listing %v, want the 4-day one it was built from, %v", got, files5[:4])
	}

	if swapped, err := s.Reload(); err != nil || !swapped || days() != 5 {
		t.Fatalf("next poll: swapped=%v err=%v days=%d; want the late day picked up", swapped, err, days())
	}
	if got := s.gen.Load().files; !slices.Equal(got, files5) {
		t.Fatalf("generation keeps the listing %v, not the one it was listed from, %v", got, files5)
	}
	if swapped, err := s.Reload(); err != nil || swapped {
		t.Fatalf("poll after that: swapped=%v err=%v; want no second swap", swapped, err)
	}
}

// TestReloadSurvivesBadDay: a truncated day at a chain tip does not
// stall the dataset. The daemon serves the chain up to the previous day,
// /v1/meta and the gauge name the casualty, other IXPs keep loading new
// days, the bad file is not re-read while it stays as it is, and the
// repaired file is picked up by the next poll.
func TestReloadSurvivesBadDay(t *testing.T) {
	dir := t.TempDir()
	profiles := ixpgen.BigFour()[:2]
	badPath, badDelta := writeDeltaSeries(t, dir, profiles[0], 4, 3)
	okPath, okDelta := writeDeltaSeries(t, dir, profiles[1], 4, 3)
	reg := telemetry.New()
	var logMu sync.Mutex
	var logged []string
	s := New(Config{Profiles: profiles, SnapshotDir: dir, ReloadInterval: -1, Telemetry: reg,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	meta := func() MetaDoc {
		t.Helper()
		var doc MetaDoc
		code, _, body := doGet(t, s.Handler(), "/v1/meta", "")
		if code != http.StatusOK {
			t.Fatalf("/v1/meta: %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if strings.Contains(fmt.Sprint(meta()), "skipped") || len(meta().Skipped) != 0 {
		t.Fatal("a clean dataset reports skipped files")
	}

	landFile(t, badPath, badDelta[:len(badDelta)/2])
	if swapped, err := s.Reload(); err != nil || !swapped {
		t.Fatalf("reload with a truncated tip: swapped=%v err=%v; want the rest installed", swapped, err)
	}
	doc := meta()
	if len(doc.Skipped) != 1 || doc.Skipped[0].File != filepath.Base(badPath) || !strings.Contains(doc.Skipped[0].Reason, "truncated") {
		t.Fatalf("/v1/meta skipped = %+v, want the truncated file and why", doc.Skipped)
	}
	if doc.IXPs[0].Days != 3 || doc.IXPs[1].Days != 3 {
		t.Fatalf("serving %d and %d days, want 3 and 3", doc.IXPs[0].Days, doc.IXPs[1].Days)
	}
	if got := s.met.skipped.Value(); got != 1 {
		t.Errorf("ixplight_ixpd_skipped_files = %d, want 1", got)
	}
	if swapped, err := s.Reload(); err != nil || swapped {
		t.Fatalf("poll on the unchanged directory: swapped=%v err=%v", swapped, err)
	}

	// The other IXP's day lands while the bad file is still there.
	landFile(t, okPath, okDelta)
	if swapped, err := s.Reload(); err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	if rep := s.gen.Load().load; rep.Opened != 1 || rep.Advances != 1 || len(rep.Skipped) != 1 {
		t.Errorf("landing a day beside a bad file: %+v; want one open, one advance, the bad file still listed", rep)
	}
	if doc := meta(); doc.IXPs[0].Days != 3 || doc.IXPs[1].Days != 4 {
		t.Fatalf("serving %d and %d days, want 3 and 4", doc.IXPs[0].Days, doc.IXPs[1].Days)
	}

	landFile(t, badPath, badDelta)
	if swapped, err := s.Reload(); err != nil || !swapped {
		t.Fatalf("reload after the repair: swapped=%v err=%v", swapped, err)
	}
	if doc := meta(); len(doc.Skipped) != 0 || doc.IXPs[0].Days != 4 {
		t.Fatalf("after the repair: %d days, skipped %+v", doc.IXPs[0].Days, doc.Skipped)
	}
	if rep := s.gen.Load().load; rep.Decoded != 0 || rep.Advances != 1 {
		t.Errorf("picking up the repaired day cost %+v, want one advance", rep)
	}
	logMu.Lock()
	n := 0
	for _, l := range logged {
		if strings.Contains(l, "skipped") && strings.Contains(l, filepath.Base(badPath)) {
			n++
		}
	}
	logMu.Unlock()
	if n != 2 { // once per generation that carried it
		t.Errorf("the skipped file was logged %d times over two generations that carried it", n)
	}

	// An initial load that finds nothing loadable is still an error.
	empty := t.TempDir()
	landFile(t, filepath.Join(empty, filepath.Base(badPath)), badDelta[:len(badDelta)/2])
	if err := New(Config{Profiles: profiles, SnapshotDir: empty, ReloadInterval: -1}).Load(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("initial load of a directory with nothing loadable: %v", err)
	}
}

// TestVersion1DeltaIsSkipped: a delta of the first format at a chain
// tip is a skipped file: /v1/meta lists it with the way to rebuild the
// dataset, and the chain is served up to the day before it.
func TestVersion1DeltaIsSkipped(t *testing.T) {
	dir := t.TempDir()
	p := ixpgen.BigFour()[0]
	tipPath, tipDelta := writeDeltaSeries(t, dir, p, 4, 3)
	v1 := bytes.Clone(tipDelta)
	v1[len("IXPD")] = 1 // the version follows the magic
	landFile(t, tipPath, v1)
	s := New(Config{Profiles: []ixpgen.Profile{p}, SnapshotDir: dir, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	code, _, body := doGet(t, s.Handler(), "/v1/meta", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/meta: %d %s", code, body)
	}
	var doc MetaDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Skipped) != 1 || doc.Skipped[0].File != filepath.Base(tipPath) || !strings.Contains(doc.Skipped[0].Reason, "version 1") ||
		!strings.Contains(doc.Skipped[0].Reason, "regenerate the dataset with ixpgen or re-collect it") {
		t.Fatalf("/v1/meta skipped = %+v, want the version-1 tip and how to rebuild it", doc.Skipped)
	}
	if len(doc.IXPs) != 1 || doc.IXPs[0].Days != 3 {
		t.Fatalf("/v1/meta IXPs = %+v, want the chain's first 3 days served", doc.IXPs)
	}
}

// TestReloadSharesDaysUnderReaders is the torn-generation check, for
// -race: while readers hammer cold per-AS and per-community queries on
// the tip day, the tip leaves and lands again several times — each
// landing advances chain state reachable from days readers hold. Every
// response is a 200, and a request pinned to the first generation still
// sees its own days, byte for byte, after its successors re-folded the
// chain and appended into it.
func TestReloadSharesDaysUnderReaders(t *testing.T) {
	dir := t.TempDir()
	p := ixpgen.BigFour()[0]
	tipPath, tipDelta := writeDeltaSeries(t, dir, p, 6, 5)
	landFile(t, tipPath, tipDelta)
	s := New(Config{Profiles: []ixpgen.Profile{p}, SnapshotDir: dir, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	genA := s.gen.Load()
	pinned := func() string {
		t.Helper()
		series, err := s.seriesDoc(genA, p.IXP)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal([]any{series, s.metaDoc(genA)})
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want := pinned()
	if n := len(genA.lab.Series[p.IXP]); n != 6 {
		t.Fatalf("generation A serves %d days, want 6", n)
	}
	var meta MetaDoc
	_, _, body := doGet(t, h, "/v1/meta", "")
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var bad, served atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; !stop.Load(); i++ {
				path := fmt.Sprintf("/v1/as/%d?nonce=%d-%d", meta.IXPs[0].SampleASNs[i%len(meta.IXPs[0].SampleASNs)], r, i)
				if i%2 == 1 {
					path = fmt.Sprintf("/v1/community/%s?nonce=%d-%d", meta.IXPs[0].SampleCommunities[i%len(meta.IXPs[0].SampleCommunities)], r, i)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				served.Add(1)
				if rec.Code != http.StatusOK {
					bad.Add(1)
				}
			}
		}(r)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := os.Remove(tipPath); err != nil {
			t.Fatal(err)
		}
		if swapped, err := s.Reload(); err != nil || !swapped {
			t.Fatalf("cycle %d, tip removed: swapped=%v err=%v", cycle, swapped, err)
		}
		if n := len(s.gen.Load().lab.Series[p.IXP]); n != 5 {
			t.Fatalf("cycle %d: %d days after the removal, want 5", cycle, n)
		}
		landFile(t, tipPath, tipDelta)
		if swapped, err := s.Reload(); err != nil || !swapped {
			t.Fatalf("cycle %d, tip landed: swapped=%v err=%v", cycle, swapped, err)
		}
		if rep := s.gen.Load().load; rep.Advanced != 1 || rep.Decoded != 0 {
			t.Fatalf("cycle %d: landing the tip cost %+v, want one advanced day", cycle, rep)
		}
		if got := pinned(); got != want {
			t.Fatalf("cycle %d: generation A no longer answers as it did:\n%s\nwas\n%s", cycle, got, want)
		}
	}
	stop.Store(true)
	readers.Wait()
	if bad.Load() != 0 || served.Load() == 0 {
		t.Fatalf("%d of %d reader requests failed", bad.Load(), served.Load())
	}
}
