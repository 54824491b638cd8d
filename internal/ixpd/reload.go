package ixpd

import (
	"context"
	"slices"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/telemetry"
)

// Hot reload: new collection days land in the snapshot directory as
// files (the collectors write them atomically), so the daemon polls
// the directory listing — names, sizes and mtimes — instead of
// depending on an fsnotify-style watcher: portable, cheap between
// changes, and immune to editor/rename event storms. When the listing
// is not the one the serving generation was loaded from, the next
// generation is built from the serving one off the request path: the
// loader diffs the listing against the serving generation's file
// table, shares every day whose file and chain prefix did not change,
// and decodes or advances only what landed — a new day costs one delta
// open and one Index.Advance; a removed, rewritten or touched day
// re-folds its IXP's chain from the base, and only that IXP. The new
// generation's digest is its lab's, a hash of file contents, so a
// touch swaps a generation whose ETags are the old ones. Only the
// final pointer swap is shared with serving.

// WatchReload polls the dataset directory until ctx is cancelled,
// reloading whenever its listing changes. It returns immediately when
// polling is disabled (ReloadInterval < 0).
func (s *Server) WatchReload(ctx context.Context) {
	if s.cfg.reloadInterval() < 0 {
		return
	}
	t := time.NewTicker(s.cfg.reloadInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := s.Reload(); err != nil {
				s.cfg.logf("ixpd: reload: %v", err)
			}
		}
	}
}

// Reload compares the dataset directory against the serving
// generation and, when it changed, builds and installs the next
// generation. It reports whether a swap happened. Serving is never
// blocked: requests keep answering from the old generation for the
// whole load, and requests already holding the old pointer finish on
// it after the swap. A file that cannot be loaded does not fail the
// reload: everything else is installed and the file is listed as
// skipped (see MetaDoc.Skipped) until a later listing makes it loadable.
func (s *Server) Reload() (swapped bool, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.gen.Load()
	if cur == nil {
		return false, nil // the initial Load has not run
	}
	swapped, err = s.load(cur)
	switch {
	case err != nil:
		s.met.reloads.With("error").Inc()
	case swapped:
		s.met.reloads.With("ok").Inc()
	}
	return swapped, err
}

// load is the one way a generation comes to serve: take one listing of
// the dataset directory, and unless it is the one cur was built from,
// build cur's successor from it and install it. cur is nil for the
// initial load, which fails — installing nothing — when files were
// skipped and no day loaded at all.
func (s *Server) load(cur *generation) (swapped bool, err error) {
	t0 := time.Now()
	files, err := collector.ListDir(s.cfg.SnapshotDir, true)
	if err != nil {
		return false, err
	}
	if s.afterList != nil {
		s.afterList()
	}
	if cur != nil {
		s.met.age(cur)
		if slices.Equal(files, cur.files) {
			return false, nil
		}
	}
	_, sp := telemetry.StartSpan(context.Background(), s.cfg.Telemetry, "ixpd.reload")
	gen := s.buildGeneration(cur, files)
	if cur == nil && len(gen.load.Skipped) > 0 && len(gen.lab.Series) == 0 {
		skipped := &gen.load.Skipped[0]
		if sp != nil {
			sp.SetAttr("error", skipped.Error())
			sp.End()
		}
		return false, skipped
	}
	s.install(gen)
	rep := &gen.load
	s.met.reloaded(t0, rep)
	if sp != nil {
		sp.SetAttrInt("generation", int64(gen.id))
		sp.SetAttrInt("files_opened", int64(rep.Opened))
		sp.SetAttrInt("files_decoded", int64(rep.Decoded))
		sp.SetAttrInt("advances", int64(rep.Advances))
		sp.SetAttrInt("days_reused", int64(rep.Reused))
		sp.SetAttrInt("days_advanced", int64(rep.Advanced))
		sp.SetAttrInt("days_rebuilt", int64(rep.Rebuilt))
		sp.SetAttrInt("files_skipped", int64(len(rep.Skipped)))
		sp.End()
	}
	return true, nil
}
