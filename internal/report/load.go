package report

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/mrt"
)

// LoadSnapshotDir replaces the lab's generated snapshots with stored
// files from dir: every regular file is decoded (codec deduced per
// file, so a directory may mix json/binary/MRT freely), the full
// date-ordered series per IXP feeds the temporal experiments, and the
// latest snapshot per IXP becomes the point-in-time input. Files are
// decoded across the lab's worker pool; the resulting series order is
// deterministic regardless of worker interleaving because it is
// re-sorted by date.
//
// Columnar binary files of a profiled IXP are, unless l.Materialize
// is set, indexed straight off their columns: the loaded snapshot is
// header-only with the classified index attached, and every analysis
// wrapper answers from the index. Other codecs, MRT dumps and
// unprofiled IXPs materialize.
//
// Delta files (.delta) reconstruct their days from the chain base in
// the same directory: each day's index is advanced from the previous
// day's (never materializing the routes), unless l.Materialize sends
// the chain through a materializing DeltaApplier. Chains fold on the
// worker pool, one task per IXP, each in date order. A delta whose base
// snapshot is missing from dir is an error; when several chains are
// broken the error is the lexically first IXP's earliest broken day.
func (l *Lab) LoadSnapshotDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files, deltaFiles []string
	for _, e := range entries {
		switch {
		case e.IsDir():
		case strings.HasPrefix(e.Name(), "."):
			// AtomicWrite stages dot-prefixed temp files in the same
			// directory; a loader racing a collector must not decode one.
		case strings.HasSuffix(e.Name(), collector.DeltaExt):
			deltaFiles = append(deltaFiles, e.Name())
		default:
			files = append(files, e.Name())
		}
	}

	// Deltas parse up front (they decode lazily, so this is cheap) so
	// chain bases are known before the full snapshots load: a chain's
	// base keeps the chain state its days advance, a standalone file's
	// index does not.
	deltas := make([]*collector.DeltaReader, len(deltaFiles))
	if _, err := runPool(len(deltaFiles), l.workers(), func(i int) error {
		dr, err := collector.OpenDelta(filepath.Join(dir, deltaFiles[i]))
		if err != nil {
			return fmt.Errorf("load %s: %w", deltaFiles[i], err)
		}
		deltas[i] = dr
		return nil
	}); err != nil {
		return err
	}
	chainBases := map[string]bool{}
	if len(deltas) > 0 {
		emitted := map[string]bool{}
		for _, dr := range deltas {
			emitted[chainKey(dr.Header().IXP, dr.Header().Date)] = true
		}
		for _, dr := range deltas {
			if k := chainKey(dr.Header().IXP, dr.BaseDate()); !emitted[k] {
				chainBases[k] = true
			}
		}
	}

	schemes := make(map[string]*dictionary.Scheme, len(l.Profiles))
	if !l.Materialize {
		for _, p := range l.Profiles {
			schemes[p.IXP] = p.Scheme
		}
	}
	snaps := make([]*collector.Snapshot, len(files))
	if _, err := runPool(len(files), l.workers(), func(i int) error {
		path := filepath.Join(dir, files[i])
		var snap *collector.Snapshot
		var err error
		if strings.HasSuffix(files[i], ".mrt") {
			snap, err = loadMRTFile(path)
		} else {
			snap, err = loadSnapshotFile(path, schemes, chainBases)
		}
		if err != nil {
			return fmt.Errorf("load %s: %w", files[i], err)
		}
		snaps[i] = snap
		return nil
	}); err != nil {
		return err
	}

	if len(deltas) > 0 {
		chained, err := applyDeltaChains(snaps, deltas, deltaFiles, schemes, l.workers())
		if err != nil {
			return err
		}
		snaps = append(snaps, chained...)
	}

	l.Series = make(map[string][]*collector.Snapshot)
	for _, snap := range snaps {
		l.Series[snap.IXP] = append(l.Series[snap.IXP], snap)
	}
	for ixp, series := range l.Series {
		slices.SortStableFunc(series, func(a, b *collector.Snapshot) int {
			return strings.Compare(a.Date, b.Date)
		})
		l.Snapshots[ixp] = series[len(series)-1]
	}
	return nil
}

func chainKey(ixp, date string) string { return ixp + "\x00" + date }

// applyDeltaChains reconstructs every delta day from the loaded base
// snapshots. Every lookup is keyed by IXP, so the chains of different
// IXPs never interact: the deltas are grouped by IXP and each group
// folds, in date order, as one task on the worker pool. Groups run in
// lexical IXP order and runPool reports its lowest failing task, so
// the error is the one the sequential loop hits — the first IXP's
// earliest broken day — for any worker count.
//
// A header-only chain base carries a series index (loadSnapshotFile
// built it that way) and each day advances the previous day's index,
// attached to another header-only snapshot; a materialized base runs
// its chain through a DeltaApplier. Either way the reconstructed day
// joins its IXP's days, where a later delta finds its base.
func applyDeltaChains(snaps []*collector.Snapshot, deltas []*collector.DeltaReader, names []string, schemes map[string]*dictionary.Scheme, workers int) ([]*collector.Snapshot, error) {
	groups := map[string][]int{} // IXP → indexes into deltas and names
	for i, dr := range deltas {
		ixp := dr.Header().IXP
		groups[ixp] = append(groups[ixp], i)
	}
	ixps := make([]string, 0, len(groups))
	// byDate[ixp] is written only by that IXP's task.
	byDate := make(map[string]map[string]*collector.Snapshot, len(groups))
	for ixp, order := range groups {
		ixps = append(ixps, ixp)
		byDate[ixp] = make(map[string]*collector.Snapshot, len(order)+1)
		slices.SortStableFunc(order, func(a, b int) int {
			return strings.Compare(deltas[a].Header().Date, deltas[b].Header().Date)
		})
	}
	slices.Sort(ixps)
	for _, s := range snaps {
		if days := byDate[s.IXP]; days != nil {
			days[s.Date] = s
		}
	}

	chained := make([][]*collector.Snapshot, len(ixps))
	fold := func(g int) error {
		ixp := ixps[g]
		days := byDate[ixp]
		appliers := map[string]*collector.DeltaApplier{} // keyed by the date the applier stands at
		for _, i := range groups[ixp] {
			dr := deltas[i]
			baseDate := dr.BaseDate()
			base := days[baseDate]
			if base == nil {
				return fmt.Errorf("apply %s: no snapshot for base day %s of %s", names[i], baseDate, ixp)
			}
			var next *collector.Snapshot
			if scheme := schemes[ixp]; scheme != nil && base.Routes == nil {
				ix, err := analysis.IndexFor(base, scheme).Advance(dr)
				if err != nil {
					return fmt.Errorf("apply %s: %w", names[i], err)
				}
				next = ix.Snapshot()
				analysis.AttachIndex(next, ix)
			} else {
				app := appliers[baseDate]
				if app == nil {
					var err error
					if app, err = collector.NewDeltaApplier(base); err != nil {
						return fmt.Errorf("apply %s: %w", names[i], err)
					}
				}
				s, err := app.Apply(dr)
				if err != nil {
					return fmt.Errorf("apply %s: %w", names[i], err)
				}
				delete(appliers, baseDate)
				appliers[s.Date] = app
				next = s
			}
			days[next.Date] = next
			chained[g] = append(chained[g], next)
		}
		return nil
	}
	if _, err := runPool(len(ixps), workers, fold); err != nil {
		return nil, err
	}
	return slices.Concat(chained...), nil
}

// loadSnapshotFile decodes one native snapshot file through the
// random-access reader (mmap where the platform provides it), so the
// codec is deduced from the extension or the file's magic bytes. A
// columnar file whose IXP has a scheme in schemes is not materialized:
// the classified index is built off its columns and attached to the
// header-only snapshot — as a series index when the file heads a delta
// chain, so later days can advance it.
func loadSnapshotFile(path string, schemes map[string]*dictionary.Scheme, chainBases map[string]bool) (*collector.Snapshot, error) {
	sr, err := collector.OpenSnapshotAt(path)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	if sr.Codec() == collector.CodecBinary {
		head := sr.Header()
		if scheme := schemes[head.IXP]; scheme != nil {
			var ix *analysis.Index
			if chainBases[chainKey(head.IXP, head.Date)] {
				ix, err = analysis.IndexSeriesFromReader(sr, scheme)
			} else {
				ix, err = analysis.IndexFromReader(sr, scheme)
			}
			if err != nil {
				return nil, err
			}
			s := ix.Snapshot()
			analysis.AttachIndex(s, ix)
			return s, nil
		}
	}
	return sr.Snapshot()
}

func loadMRTFile(path string) (*collector.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mrt.ReadRIB(f)
}
