package report

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/mrt"
)

// File is one entry of a dataset directory listing. Size and ModTime
// (Unix nanoseconds) identify the file's bytes to a later load: dataset
// writes are atomic (temp + rename), so (name, size, mtime) moves if and
// only if the bytes moved. A load with no predecessor never compares
// them, so ListDir leaves them zero unless asked to stat.
type File struct {
	Name    string
	Size    int64
	ModTime int64
}

// datasetExts are the three kinds of file a dataset directory is made
// of: full binary snapshots, delta chain days and MRT exports.
var datasetExts = [...]string{collector.CodecBinary.Ext(), collector.DeltaExt, collector.MRTExt}

func isDatasetFile(name string) bool {
	for _, ext := range datasetExts {
		if strings.HasSuffix(name, ext) {
			return true
		}
	}
	return false
}

// ListDir lists dir's dataset files — the names ending in .bin, .delta
// or .mrt — in name order. Everything else is not part of the dataset
// and is never opened: directories, what a collector leaves next to
// its snapshots (trace.jsonl, checkpoint-*.json), and
// dot-prefixed names, because AtomicWrite stages its temp files
// dot-prefixed in the same directory and a loader racing a collector
// must not decode one. A directory with no dataset file at all is an
// error: it is the wrong directory, or a dataset in a removed codec.
// With stat set every file's size and mtime are filled in; a file that
// vanishes between the listing and its stat is not listed.
func ListDir(dir string, stat bool) ([]File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make([]File, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") || !isDatasetFile(e.Name()) {
			continue
		}
		f := File{Name: e.Name()}
		if stat {
			info, err := e.Info()
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if err != nil {
				return nil, err
			}
			f.Size, f.ModTime = info.Size(), info.ModTime().UnixNano()
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("report: %s holds no dataset file (%s); a dataset in the removed json or json.gz codec must be regenerated or re-collected",
			dir, strings.Join(datasetExts[:], ", "))
	}
	return files, nil
}

// Skipped is a listed file a load left out of the dataset: Op is the
// step that gave up on it ("load": the file could not be read or
// decoded; "apply": the delta could not extend its chain — no snapshot
// for its base day, a base digest or table-size mismatch, corrupt ops)
// and Err is why. As an error it reads "<op> <file>: <why>".
type Skipped struct {
	Op   string
	File string
	Err  error
}

func (s *Skipped) Error() string { return s.Op + " " + s.File + ": " + s.Err.Error() }
func (s *Skipped) Unwrap() error { return s.Err }

// LoadReport is what one Load did: the files it could not use, in the
// order a sequential load meets them (unreadable deltas, then
// undecodable snapshots, both by name; then broken chain days by IXP and
// date), and the work it took — delta files opened, snapshot files
// decoded, deltas applied — next to where the served days came from:
// reused from the predecessor, advanced from a reused chain tip, or
// rebuilt (decoded from a full file, or re-folded from a chain base).
type LoadReport struct {
	Skipped                   []Skipped
	Opened, Decoded, Advances int
	Reused, Advanced, Rebuilt int
}

// LoadSnapshotDir replaces the lab's generated snapshots with stored
// files from dir: Load over a fresh listing with no predecessor. A
// file or chain day the loader had to skip is an error — the first one
// a sequential load meets, so with several broken chains the lexically
// first IXP's earliest broken day — and the lab then holds the days
// that did load.
func (l *Lab) LoadSnapshotDir(dir string) error {
	files, err := ListDir(dir, false)
	if err != nil {
		return err
	}
	if rep := l.Load(dir, files, nil); len(rep.Skipped) > 0 {
		return &rep.Skipped[0]
	}
	return nil
}

// Load makes l serve the dataset in dir as listed by files (ListDir
// order): every file is decoded (a directory may mix full binary
// snapshots, delta chains and MRT exports freely), the full
// date-ordered series per IXP feeds the temporal experiments, and the
// latest snapshot per IXP becomes the point-in-time input. It is the
// only loader: prev is the lab a previous Load of the same directory
// filled (nil for none; it must be configured like l), and the work
// done is the difference between prev's file table and files.
//
//   - A file whose (name, size, mtime) prev already holds is not opened:
//     the day it produced is shared with prev. Loaded days are immutable,
//     so prev keeps serving while, and after, l is built from it.
//   - Per IXP, the delta files fold in date order (applyChain). When
//     prev's fold is a prefix of the new one — same full files, and
//     every delta prev applied still in place — only the new tail folds,
//     each day advanced from the chain tip prev left. Anything else (a
//     removed, rewritten or touched day, a replaced base) re-folds that
//     IXP from its base files, and only that IXP; all its days are then
//     new ones, because every day of a chain references the chain state
//     and sharing the old days would keep the consumed state alive next
//     to the rebuilt one. A chain that
//     materializes its days (l.Materialize, an unprofiled IXP, an MRT
//     base) keeps no advanceable state, so any change to it re-folds it.
//   - Nothing fails the load: a file that cannot be read, decoded or
//     applied is reported in LoadReport.Skipped and the chain serves up
//     to its last good day. A file that does not open is remembered per
//     (name, size, mtime) and not retried; a day that could not apply is
//     retried when its IXP's files change at or before it — when its
//     missing predecessor lands, say.
//
// Binary files of a profiled IXP are, unless l.Materialize is set,
// indexed straight off their columns: the loaded snapshot is
// header-only with the classified index attached. MRT dumps and
// unprofiled IXPs materialize. Either way l.Indexes holds the index of
// each profiled IXP's latest day when Load returns, so no experiment
// builds one. Files decode, and IXPs fold, across the lab's worker
// pool; the result is the same for any worker count.
func (l *Lab) Load(dir string, files []File, prev *Lab) LoadReport {
	ld := &loader{
		dir:     dir,
		files:   make([]loadedFile, 0, len(files)),
		readers: make([]*collector.DeltaReader, len(files)),
		schemes: make(map[string]*dictionary.Scheme, len(l.Profiles)),
	}
	if !l.Materialize {
		for _, p := range l.Profiles {
			ld.schemes[p.IXP] = p.Scheme
		}
	}
	var old *dataset
	if prev != nil {
		old = prev.loaded
	}
	var rep LoadReport

	// Carry over every file the predecessor already holds; open the
	// deltas it does not (they decode lazily, so this is cheap) so chain
	// bases are known before the full snapshots load: a chain's base
	// keeps the chain state its days advance, a standalone file's index
	// does not.
	var opens []int
	j := 0
	for i, f := range files {
		lf := loadedFile{File: f, delta: strings.HasSuffix(f.Name, collector.DeltaExt)}
		if old != nil {
			for j < len(old.files) && old.files[j].Name < f.Name {
				j++
			}
			if j < len(old.files) && old.files[j].File == f {
				lf = old.files[j]
				lf.carried = true
			}
		}
		if lf.delta && !lf.carried {
			opens = append(opens, i)
		}
		ld.files = append(ld.files, lf)
	}
	if len(opens) > 0 {
		runPool(len(opens), l.workers(), func(k int) error {
			ld.open(opens[k])
			return nil
		})
	}
	rep.Opened = len(opens)

	ld.roles = make(map[dayKey]dayRole, len(files))
	for i := range ld.files {
		if f := &ld.files[i]; f.delta && f.bad == nil {
			ld.roles[dayKey{f.ixp, f.date}] |= chained
			ld.roles[dayKey{f.ixp, f.base}] |= extended
		}
	}

	// Decode the full files that are new, or whose index was built for
	// the other role (a standalone day that now heads a chain, or the
	// reverse).
	var decodes []int
	for i := range ld.files {
		f := &ld.files[i]
		if f.delta {
			continue
		}
		if f.carried && f.indexed && f.series != (ld.roles[dayKey{f.ixp, f.date}] == extended) {
			f.carried = false
		}
		if !f.carried {
			decodes = append(decodes, i)
		}
	}
	if len(decodes) > 0 {
		runPool(len(decodes), l.workers(), func(k int) error {
			ld.decode(decodes[k])
			return nil
		})
	}
	rep.Decoded = len(decodes)

	// Group the parsed files by IXP — counted first, then carved out of
	// one index slice — and plan each IXP's fold against the
	// predecessor's. Only the IXPs with something to fold go to the
	// pool, one task each, in lexical order.
	groups := make(map[string]*ixpLoad, len(l.Profiles))
	ixps := make([]*ixpLoad, 0, len(l.Profiles))
	parsed := 0
	for i := range ld.files {
		f := &ld.files[i]
		if f.bad != nil {
			continue
		}
		parsed++
		x := groups[f.ixp]
		if x == nil {
			x = &ixpLoad{ixp: f.ixp}
			groups[f.ixp] = x
			ixps = append(ixps, x)
		}
		if f.delta {
			x.ndeltas++
		} else {
			x.nfulls++
		}
	}
	slices.SortFunc(ixps, func(a, b *ixpLoad) int { return strings.Compare(a.ixp, b.ixp) })
	index := make([]int, parsed)
	for _, x := range ixps {
		x.fulls, index = index[:0:x.nfulls], index[x.nfulls:]
		x.deltas, index = index[:0:x.ndeltas], index[x.ndeltas:]
	}
	for i := range ld.files {
		f := &ld.files[i]
		if f.bad != nil {
			continue
		}
		if x := groups[f.ixp]; f.delta {
			x.deltas = append(x.deltas, i)
		} else {
			x.fulls = append(x.fulls, i)
		}
	}
	folds := make([]*ixpLoad, 0, len(ixps))
	for _, x := range ixps {
		slices.SortStableFunc(x.deltas, func(a, b int) int {
			return strings.Compare(ld.files[a].date, ld.files[b].date)
		})
		if old != nil {
			if k, ok := slices.BinarySearchFunc(old.chains, x.ixp, func(c *chain, ixp string) int { return strings.Compare(c.ixp, ixp) }); ok {
				x.prev = old.chains[k]
			}
		}
		if ld.plan(x); x.out == nil {
			folds = append(folds, x)
		}
	}
	runPool(len(folds), l.workers(), func(g int) error {
		ld.applyChain(folds[g])
		return nil
	})

	for i := range ld.files {
		if f := &ld.files[i]; f.delta && f.bad != nil {
			rep.Skipped = append(rep.Skipped, Skipped{Op: "load", File: f.Name, Err: f.bad})
		}
	}
	for i := range ld.files {
		if f := &ld.files[i]; !f.delta && f.bad != nil {
			rep.Skipped = append(rep.Skipped, Skipped{Op: "load", File: f.Name, Err: f.bad})
		}
	}
	ds := &dataset{files: ld.files, chains: make([]*chain, len(ixps))}
	l.Series = make(map[string][]*collector.Snapshot, len(ixps))
	days := 0
	for g, x := range ixps {
		c := x.out
		ds.chains[g] = c
		for k := range c.steps {
			if st := &c.steps[k]; st.err != nil {
				rep.Skipped = append(rep.Skipped, Skipped{Op: "apply", File: st.Name, Err: st.err})
			}
		}
		rep.Opened += x.work.Opened
		rep.Decoded += x.work.Decoded
		rep.Advances += x.work.Advances
		rep.Advanced += x.work.Advanced
		rep.Rebuilt += x.work.Rebuilt
		if len(c.days) == 0 {
			continue
		}
		days += len(c.days)
		l.Series[x.ixp] = c.days
		l.Snapshots[x.ixp] = c.days[len(c.days)-1]
	}
	rep.Reused = days - rep.Advanced - rep.Rebuilt
	l.loaded = ds

	// The latest day of each profiled IXP carries its index into the
	// lab. A header-only day has it attached. A materialized one
	// (l.Materialize, an MRT export) is indexed here from its routes,
	// unless prev serves the same day and already did; the index lands
	// in the lab, never on the day, which prev may be serving.
	var builds []int
	for i, p := range l.Profiles {
		x := groups[p.IXP]
		if x == nil || len(x.out.days) == 0 {
			continue
		}
		day := l.Snapshots[p.IXP]
		ix := analysis.Attached(day)
		if ix == nil && prev != nil && prev.Indexes[p.IXP] != nil && prev.Indexes[p.IXP].Snapshot() == day {
			ix = prev.Indexes[p.IXP]
		}
		if ix == nil {
			builds = append(builds, i)
			continue
		}
		l.Indexes[p.IXP] = ix
	}
	if len(builds) > 0 {
		built := make([]*analysis.Index, len(builds))
		runPool(len(builds), l.workers(), func(k int) error {
			p := l.Profiles[builds[k]]
			built[k] = analysis.NewIndex(l.Snapshots[p.IXP], p.Scheme)
			return nil
		})
		for k, i := range builds {
			l.Indexes[l.Profiles[i].IXP] = built[k]
		}
	}
	return rep
}

// dataset is what a Load leaves on its lab for the next one to start
// from: the file table and, per IXP, the fold that produced its days.
// It is immutable once the Load returns. It holds the produced days,
// never a DeltaReader (whose ops alias the whole file's bytes).
type dataset struct {
	files  []loadedFile // in listing (name) order
	chains []*chain     // by IXP
}

// loadedFile is one file table entry.
type loadedFile struct {
	File
	delta bool
	// The header facts, known once the file opened (bad is nil).
	ixp, date string
	base      string // deltas: the day this one extends
	// indexed: a full file loaded header-only with its index attached;
	// series: that index was built as a chain base and carries the
	// chain state its deltas advance.
	indexed, series bool
	// day is the day a full file decoded to; nil when it did not.
	day *collector.Snapshot
	// bad is why the file does not open — unreadable, truncated, not a
	// snapshot. It holds for as long as (name, size, mtime) does, so the
	// file is not tried again.
	bad error
	// carried marks, during one Load, an entry taken over from the
	// predecessor and not touched since.
	carried bool
}

type dayKey struct{ ixp, date string }

// dayRole says what the directory's deltas make of one (IXP, day): some
// delta extends it, some delta produces it. A day that is extended and
// not itself chained heads a chain.
type dayRole uint8

const (
	extended dayRole = 1 << iota
	chained
)

// ixpLoad is one IXP's share of a Load: its parsed files as indexes
// into loader.files (the full files in name order, the deltas in fold —
// date — order), the fold the predecessor left, the plan, and the
// outcome.
type ixpLoad struct {
	ixp             string
	nfulls, ndeltas int
	fulls, deltas   []int
	prev            *chain
	// from is the step the fold starts at on top of prev's days; -1
	// folds everything from the full files.
	from int
	out  *chain
	work LoadReport
}

// chain is one IXP's fold: what went in and the days that came out.
type chain struct {
	ixp   string
	fulls int    // full files that went in
	steps []step // the deltas in fold order
	// applied is one past the last step that produced a day: steps
	// beyond it left the chain state untouched.
	applied int
	// extendable: every applied step went through Index.Advance, so the
	// newest day's index owns state a later Load can advance.
	extendable bool
	days       []*collector.Snapshot // the IXP's series, by date
}

// step is one delta file's turn in a fold.
type step struct {
	File
	err error // why it produced no day; nil when it did
}

type loader struct {
	dir     string
	schemes map[string]*dictionary.Scheme
	files   []loadedFile
	// readers holds, parallel to files, the deltas opened so far. An
	// entry is written by the pool task that opens the file and read
	// only by its IXP's fold.
	readers []*collector.DeltaReader
	roles   map[dayKey]dayRole
}

// open parses delta file i's header.
func (ld *loader) open(i int) {
	f := &ld.files[i]
	dr, err := collector.OpenDelta(filepath.Join(ld.dir, f.Name))
	if err != nil {
		f.bad = err
		return
	}
	ld.readers[i] = dr
	f.ixp, f.date, f.base = dr.Header().IXP, dr.Header().Date, dr.BaseDate()
}

// decode loads full file i.
func (ld *loader) decode(i int) {
	f := &ld.files[i]
	path := filepath.Join(ld.dir, f.Name)
	f.carried = false
	if strings.HasSuffix(f.Name, collector.MRTExt) {
		f.day, f.bad = loadMRTFile(path)
	} else {
		f.day, f.indexed, f.series, f.bad = loadSnapshotFile(path, ld.schemes, ld.roles)
	}
	if f.bad != nil {
		f.day = nil
		return
	}
	f.ixp, f.date = f.day.IXP, f.day.Date
}

// applyChain is the per-IXP fold every load goes through. The chains of
// different IXPs never interact — every lookup is keyed by IXP — so each
// IXP is one task on the worker pool, touching only its own entries of
// ld.files and ld.readers.
//
// The IXP's days start as its full files' days (or, when the
// predecessor's fold is a prefix of this one, as the predecessor's
// days: see plan), and each delta in date order looks
// its base day up among them. A header-only base carries a series index
// (loadSnapshotFile built it that way) and the delta advances it into
// the next header-only day; a materialized base runs its chain through
// a DeltaApplier. Either way the new day joins the IXP's days, where a
// later delta finds its base.
//
// A delta that cannot apply is skipped, recorded on its step, and the
// fold goes on: its successors miss their base day and are skipped in
// turn. If it failed partway through Advance or Apply the chain state
// it touched is undefined, so the IXP folds again from its base files
// without it.
func (ld *loader) applyChain(x *ixpLoad) {
	pc, from := x.prev, x.from
	scheme := ld.schemes[x.ixp]
	// corrupt holds the deltas that failed partway through applying, and
	// how: a later attempt leaves them out.
	var corrupt map[int]error

	for attempt := 0; ; attempt++ {
		c := &chain{ixp: x.ixp, fulls: len(x.fulls), steps: make([]step, len(x.deltas)), extendable: true}
		extending := from >= 0
		if extending {
			copy(c.steps, pc.steps[:from])
			c.applied = pc.applied
			c.days = make([]*collector.Snapshot, len(pc.days), len(pc.days)+len(x.deltas)-from)
			copy(c.days, pc.days)
		} else {
			from = 0
			c.days = make([]*collector.Snapshot, 0, len(x.fulls)+len(x.deltas))
			for _, i := range x.fulls {
				f := &ld.files[i]
				// A chain base whose state earlier deltas advanced
				// cannot be advanced again: build it afresh.
				if f.series && (f.carried || attempt > 0) {
					ld.decode(i)
					x.work.Decoded++
				}
				if f.day != nil {
					c.days = append(c.days, f.day)
				}
			}
		}
		var appliers map[string]*collector.DeltaApplier // keyed by the date the applier stands at
		poisoned := false
		for k := from; k < len(x.deltas) && !poisoned; k++ {
			i := x.deltas[k]
			f := &ld.files[i]
			st := &c.steps[k]
			st.File = f.File
			if ld.readers[i] == nil {
				// Carried from the predecessor, which kept no reader.
				x.work.Opened++
				if ld.open(i); f.bad != nil {
					continue // gone or rewritten since the listing: reported with the unreadable files
				}
			}
			// The newest of the IXP's days so far that carries the base
			// date: a chained day shadows a full file's.
			var base *collector.Snapshot
			for d := len(c.days) - 1; d >= 0 && base == nil; d-- {
				if c.days[d].Date == f.base {
					base = c.days[d]
				}
			}
			if base == nil {
				st.err = fmt.Errorf("no snapshot for base day %s of %s", f.base, x.ixp)
				continue
			}
			if st.err = corrupt[i]; st.err != nil {
				continue
			}
			var next *collector.Snapshot
			if scheme != nil && base.Routes == nil {
				var ix *analysis.Index
				if ix, st.err = analysis.Attached(base).Advance(ld.readers[i]); st.err == nil {
					next = ix.Snapshot()
					analysis.AttachIndex(next, ix)
				}
			} else {
				c.extendable = false
				app := appliers[f.base]
				if app == nil {
					app, st.err = collector.NewDeltaApplier(base)
				}
				if st.err == nil {
					if next, st.err = app.Apply(ld.readers[i]); st.err == nil {
						if appliers == nil {
							appliers = map[string]*collector.DeltaApplier{}
						}
						delete(appliers, f.base)
						appliers[next.Date] = app
					}
				}
			}
			if st.err != nil {
				if !errors.Is(st.err, collector.ErrDeltaBaseMismatch) {
					if corrupt == nil {
						corrupt = map[int]error{}
					}
					corrupt[i], poisoned = st.err, true
				}
				continue
			}
			x.work.Advances++
			c.days = append(c.days, next)
			c.applied = k + 1
		}
		if poisoned {
			from = -1
			continue
		}
		if extending {
			x.work.Advanced = len(c.days) - len(pc.days)
		} else {
			x.work.Rebuilt = len(c.days)
			for _, i := range x.fulls {
				if f := &ld.files[i]; f.carried && f.day != nil {
					x.work.Rebuilt--
				}
			}
		}
		slices.SortStableFunc(c.days, func(a, b *collector.Snapshot) int {
			return strings.Compare(a.Date, b.Date)
		})
		x.out = c
		return
	}
}

// plan compares x's files with the fold its predecessor left and sets
// where the new fold starts: nowhere (x.out is the predecessor's chain,
// shared), at the first step the predecessor did not have (x.from), or
// from the full files (x.from < 0).
func (ld *loader) plan(x *ixpLoad) {
	x.from = -1
	pc := x.prev
	if pc == nil || pc.fulls != len(x.fulls) || slices.ContainsFunc(x.fulls, func(i int) bool { return !ld.files[i].carried }) {
		return
	}
	n := 0
	for n < len(pc.steps) && n < len(x.deltas) && pc.steps[n].File == ld.files[x.deltas[n]].File {
		n++
	}
	switch {
	case n == len(pc.steps) && n == len(x.deltas):
		x.out = pc
	case n >= pc.applied && pc.extendable:
		x.from = n
	}
}

// loadSnapshotFile decodes one binary snapshot file through the one
// reader (mmap where the platform provides it). A file whose IXP has a
// scheme in schemes is not materialized: the classified index is built
// off its columns and attached to the header-only snapshot (indexed) —
// as a series index when the file heads a delta chain, so later days
// can advance it (series).
func loadSnapshotFile(path string, schemes map[string]*dictionary.Scheme, roles map[dayKey]dayRole) (s *collector.Snapshot, indexed, series bool, err error) {
	sr, err := collector.OpenSnapshotAt(path)
	if err != nil {
		return nil, false, false, err
	}
	defer sr.Close()
	head := sr.Header()
	scheme := schemes[head.IXP]
	if scheme == nil {
		s, err = sr.Snapshot()
		return s, false, false, err
	}
	var ix *analysis.Index
	if series = roles[dayKey{head.IXP, head.Date}] == extended; series {
		ix, err = analysis.IndexSeriesFromReader(sr, scheme)
	} else {
		ix, err = analysis.IndexFromReader(sr, scheme)
	}
	if err != nil {
		return nil, false, false, err
	}
	s = ix.Snapshot()
	analysis.AttachIndex(s, ix)
	return s, true, series, nil
}

func loadMRTFile(path string) (*collector.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mrt.ReadRIB(f)
}
