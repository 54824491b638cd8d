package ixpd

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ixplight/internal/report"
)

// generation is one immutable loaded dataset: the lab, its identity
// digest, and the response cache scoped to it. Handlers pin the
// pointer once per request; a reload builds a fresh generation and
// swaps the pointer, so an old generation keeps answering its
// in-flight requests until the last one returns.
type generation struct {
	id       uint64
	lab      *report.Lab
	digest   string // 16-hex identity prefix, embedded in every ETag
	sig      string // raw directory signature, compared by the reload poller
	loadedAt time.Time
	cache    *respCache
}

// buildGeneration loads a fresh generation: the snapshot directory
// when configured (delta chains walked incrementally by default),
// the calibrated synthetic lab otherwise.
func (s *Server) buildGeneration() (*generation, error) {
	cfg := &s.cfg
	var lab *report.Lab
	var sig string
	if cfg.SnapshotDir != "" {
		// Dir mode: a shell lab, so a (re)load pays snapshot decode,
		// never synthetic generation.
		lab = report.NewLabShell(cfg.Profiles, cfg.Seed, cfg.Scale, cfg.Parallel)
		lab.Telemetry = cfg.Telemetry
		lab.Materialize = cfg.Materialize
		var err error
		if sig, err = dirSignature(cfg.SnapshotDir); err != nil {
			return nil, err
		}
		if err := lab.LoadSnapshotDir(cfg.SnapshotDir); err != nil {
			return nil, err
		}
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
	return &generation{
		id:       s.genSeq.Add(1),
		lab:      lab,
		digest:   fmt.Sprintf("%x", sum[:8]),
		sig:      sig,
		loadedAt: time.Now(),
		cache:    newRespCache(cfg.cacheCap()),
	}, nil
}

// dirSignature fingerprints the dataset directory: every regular
// file's name, size and mtime, sorted by name. Any landed, rewritten
// or removed collection day changes the signature — the reload
// trigger and, hashed, the dataset half of every ETag. Content is not
// read: snapshot writes in this repo are atomic (temp + rename), so
// (name, size, mtime) moves if and only if bytes moved.
func dirSignature(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(entries))
	for _, e := range entries {
		// Skip directories and dotfiles: AtomicWrite stages its temp
		// files dot-prefixed in the same directory, and a half-written
		// temp file must not look like a dataset change.
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		lines = append(lines, fmt.Sprintf("%s\x00%d\x00%d", e.Name(), info.Size(), info.ModTime().UnixNano()))
	}
	sort.Strings(lines)
	return "dir\x00" + dir + "\x00" + strings.Join(lines, "\n"), nil
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

// --- response cache -----------------------------------------------------

// respCache is the per-generation pre-marshaled response store: a
// bounded FIFO map from canonical query to encoded body. Bound small
// and per-generation: a reload starts cold by construction, so stale
// bodies cannot outlive their dataset.
type respCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string][]byte
	order   []string
}

func newRespCache(capacity int) *respCache {
	return &respCache{
		cap:     capacity,
		entries: make(map[string][]byte, capacity),
	}
}

func (c *respCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	data, ok := c.entries[key]
	c.mu.Unlock()
	return data, ok
}

func (c *respCache) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = data
		return
	}
	if len(c.entries) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = data
	c.order = append(c.order, key)
}

func (c *respCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
