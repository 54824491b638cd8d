package ixpd

import (
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/report"
)

// generation is one immutable loaded dataset: the lab, the listing it
// was loaded from, and the response table scoped to it. Handlers pin
// the pointer once per request; a reload builds the next generation
// from this one's lab — sharing every day whose file did not change —
// and swaps the pointer, so an old generation keeps answering its
// in-flight requests until the last one returns.
type generation struct {
	id  uint64
	lab *report.Lab
	// digest is the lab's content digest, 16 hex digits, embedded in
	// every ETag.
	digest string
	// files is the listing the lab was loaded from: the reload poller's
	// "nothing changed" key.
	files []collector.File
	// responses holds the generation's cached and in-flight responses.
	responses *respTable
	// load is what loading this generation took, and the dataset files
	// it could not use.
	load report.LoadReport
	// newest is the latest collection day loaded, for the age gauge;
	// zero for an unparseable date.
	newest time.Time
}

// buildGeneration loads the generation that succeeds prev (nil for the
// first): a shell lab filled by the one loader, report.Load, from the
// listing the caller took — against prev's lab, so the load costs what
// changed in the directory.
func (s *Server) buildGeneration(prev *generation, files []collector.File) *generation {
	cfg := &s.cfg
	lab := report.NewLabShell(cfg.Profiles, cfg.Seed, cfg.Scale, cfg.Parallel)
	lab.Telemetry = cfg.Telemetry
	var prevLab *report.Lab
	if prev != nil {
		prevLab = prev.lab
	}
	rep := lab.Load(cfg.SnapshotDir, files, prevLab)
	var digest [16]byte
	hex.Encode(digest[:], lab.Digest[:8])
	gen := &generation{
		id:        s.genSeq.Add(1),
		lab:       lab,
		digest:    string(digest[:]),
		files:     files,
		responses: newRespTable(cfg.cacheCap()),
		load:      rep,
	}
	for _, ix := range lab.Indexes {
		if day, err := time.Parse(time.DateOnly, ix.Snapshot().Date); err == nil && day.After(gen.newest) {
			gen.newest = day
		}
	}
	return gen
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
