package ixpd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ixplight/internal/report"
)

// generation is one immutable loaded dataset: the lab, its identity
// digest, and the response table scoped to it. Handlers pin the
// pointer once per request; a reload builds the next generation from
// this one's lab — sharing every day whose file did not change — and
// swaps the pointer, so an old generation keeps answering its
// in-flight requests until the last one returns.
type generation struct {
	id       uint64
	lab      *report.Lab
	digest   string // 16-hex identity prefix, embedded in every ETag
	sig      string // raw directory signature, compared by the reload poller
	loadedAt time.Time
	// responses holds the generation's cached and in-flight responses.
	responses *respTable
	// load is what loading this generation took, and the dataset files
	// it could not use (zero for a synthetic lab).
	load report.LoadReport
	// newest is the latest collection day loaded, for the age gauge;
	// zero for a synthetic lab or an unparseable date.
	newest time.Time
}

// buildGeneration loads the generation that succeeds prev (nil for the
// first): in dir mode a shell lab filled by the one loader, report.Load,
// from the listing the caller took — against prev's lab, so the load
// costs what changed in the directory — and the calibrated synthetic
// lab otherwise.
func (s *Server) buildGeneration(prev *generation, files []report.File, sig string) (*generation, error) {
	cfg := &s.cfg
	var lab *report.Lab
	var rep report.LoadReport
	if cfg.SnapshotDir != "" {
		// Dir mode: a shell lab, so a (re)load pays snapshot decode,
		// never synthetic generation.
		lab = report.NewLabShell(cfg.Profiles, cfg.Seed, cfg.Scale, cfg.Parallel)
		lab.Telemetry = cfg.Telemetry
		lab.Materialize = cfg.Materialize
		var prevLab *report.Lab
		if prev != nil {
			prevLab = prev.lab
		}
		rep = lab.Load(cfg.SnapshotDir, files, prevLab)
	} else {
		var err error
		lab, err = report.NewLabParallel(cfg.Profiles, cfg.Seed, cfg.Scale, cfg.Parallel)
		if err != nil {
			return nil, err
		}
		lab.Telemetry = cfg.Telemetry
		sig = syntheticSignature(cfg)
	}
	sum := sha256.Sum256([]byte(sig))
	gen := &generation{
		id:        s.genSeq.Add(1),
		lab:       lab,
		digest:    hex.EncodeToString(sum[:8]),
		sig:       sig,
		loadedAt:  time.Now(),
		responses: newRespTable(cfg.cacheCap()),
		load:      rep,
	}
	for _, ix := range lab.Indexes {
		if day, err := time.Parse(time.DateOnly, ix.Snapshot().Date); err == nil && day.After(gen.newest) {
			gen.newest = day
		}
	}
	return gen, nil
}

// dirSignature takes the one listing a (re)load works from and
// fingerprints it: every regular file's name, size and mtime, in name
// order. Any landed, rewritten or removed collection day changes the
// signature — the reload trigger and, hashed, the dataset half of every
// ETag. Content is not read: snapshot writes in this repo are atomic
// (temp + rename), so (name, size, mtime) moves if and only if bytes
// moved. The generation is then loaded from the returned files, not
// from a second look at the directory, so its digest names exactly the
// files it serves.
func dirSignature(dir string) ([]report.File, string, error) {
	files, err := report.ListDir(dir, true)
	if err != nil {
		return nil, "", err
	}
	sig := make([]byte, 0, len(dir)+5+len(files)*64)
	sig = append(sig, "dir\x00"...)
	sig = append(sig, dir...)
	sig = append(sig, 0)
	for i, f := range files {
		if i > 0 {
			sig = append(sig, '\n')
		}
		sig = append(sig, f.Name...)
		sig = append(sig, 0)
		sig = strconv.AppendInt(sig, f.Size, 10)
		sig = append(sig, 0)
		sig = strconv.AppendInt(sig, f.ModTime, 10)
	}
	return files, string(sig), nil
}

// syntheticSignature identifies a generated lab: the knobs that fully
// determine it.
func syntheticSignature(cfg *Config) string {
	names := make([]string, len(cfg.Profiles))
	for i, p := range cfg.Profiles {
		names[i] = p.IXP
	}
	return fmt.Sprintf("synthetic\x00seed=%d\x00scale=%g\x00ixps=%s",
		cfg.Seed, cfg.Scale, strings.Join(names, ","))
}

// --- response table -----------------------------------------------------

// respTable is the per-generation table of responses, one flight per
// canonical query: a flight in progress is what identical requests
// coalesce on, and a flight that finished with a 200 stays as the
// cached body until FIFO eviction. Anything else a flight finishes
// with leaves the table, so the next request computes afresh. Bound
// small and per-generation: a reload starts cold by construction, so
// stale bodies cannot outlive their dataset.
type respTable struct {
	mu      sync.Mutex
	cap     int
	flights map[string]*flight
	// ring holds the keys of the finished flights in the order they
	// finished: it grows to cap keys and is then fixed, head naming the
	// oldest — the one the next finish evicts and whose slot it takes.
	ring []string
	head int
}

func newRespTable(capacity int) *respTable {
	return &respTable{
		cap:     capacity,
		flights: make(map[string]*flight, capacity),
	}
}

// join returns key's flight under one lock: a finished one (hit — only
// a 200 stays once done), one in progress to wait on, or, when the
// table holds none, a new one the caller leads and must run.
func (t *respTable) join(key string) (fl *flight, hit, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fl, ok := t.flights[key]; ok {
		return fl, fl.held, false
	}
	fl = &flight{done: make(chan struct{})}
	t.flights[key] = fl
	return fl, false, true
}

// finish settles key's flight fl, whose status and data are final, and
// is called before fl.done closes: a 200 stays as the cached body,
// evicting the oldest one when the table holds cap; anything else
// leaves the table.
func (t *respTable) finish(key string, fl *flight) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fl.status != http.StatusOK {
		delete(t.flights, key)
		return
	}
	fl.held = true
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, key)
		return
	}
	delete(t.flights, t.ring[t.head])
	t.ring[t.head] = key
	t.head = (t.head + 1) % t.cap
}
