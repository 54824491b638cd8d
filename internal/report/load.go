package report

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

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

// LoadSnapshotDir fills the lab with the dataset in dir: Load over a
// fresh listing with no predecessor. A
// file or chain day the loader had to skip is an error — the first one
// a sequential load meets, so with several broken chains the lexically
// first IXP's earliest broken day — and the lab then holds the days
// that did load.
func (l *Lab) LoadSnapshotDir(dir string) error {
	files, err := collector.ListDir(dir, false)
	if err != nil {
		return err
	}
	if rep := l.Load(dir, files, nil); len(rep.Skipped) > 0 {
		return &rep.Skipped[0]
	}
	return nil
}

// Load makes l serve the dataset in dir as listed by files
// (collector.ListDir order). A dataset is chains: a full binary snapshot
// heads one, and a delta extends the day its header names as its base.
// Per IXP the lab studies, the date-ordered series of its chains' days
// feeds the temporal experiments, and its latest day is the
// point-in-time input. Another IXP's file stays in the file table, so
// no later Load opens it again, but is never decoded or folded. It is
// the only loader: prev is the lab a previous Load of the same
// directory filled (nil for none; configured like l), and the work done
// is the difference between prev's file table and files.
//
//   - A file whose (name, size, mtime) prev already holds is not opened:
//     the day it produced is shared with prev. Loaded days are immutable,
//     so prev keeps serving while, and after, l is built from it.
//   - Per IXP, the deltas fold in date order (applyChain). When prev's
//     fold is a prefix of the new one — same full files, every delta
//     prev applied still in place — only the new tail folds, advanced
//     from the day prev served. Anything else re-folds that IXP, and
//     only it, from its chain heads; so does any change to a
//     materializing lab (l.Materialize), which keeps no chain state.
//   - Two files of one day serve it once: a chained day shadows a full
//     file's, and of two full files the later-listed one wins.
//   - Nothing fails the load: a file that cannot be read, decoded or
//     applied is reported in LoadReport.Skipped and the chain serves up
//     to its last good day. A file that does not open is not retried
//     while its (name, size, mtime) stays; a day that could not apply is
//     retried when its IXP's files change at or before it.
//
// Each day keeps the sha256 of the file it came from — a .bin's bytes or
// a delta's seal — and each IXP's fold is hashed as it is folded, so
// Digest names the served data by content and a reload re-hashes only
// the IXPs it re-folds.
//
// A full file decodes one way, unless l.Materialize is set: off its
// columns into a counts-only index that owns its chain state
// (analysis.IndexSeriesFromReader). Once an IXP is folded its served
// day keeps its index, materialized, and every other day only its
// counts and file digest, so a chain head's state is garbage once it is
// not served; a served head no delta extends drops its chain state too.
// A fold that must advance from a head that no longer owns its state
// decodes the file again. l.Indexes holds the served
// day's index of each IXP. Files decode, and IXPs fold, across the
// lab's worker pool; the result is the same for any worker count.
func (l *Lab) Load(dir string, files []collector.File, prev *Lab) LoadReport {
	ld := &loader{
		dir:         dir,
		files:       make([]loadedFile, 0, len(files)),
		readers:     make([]*collector.DeltaReader, len(files)),
		schemes:     make(map[string]*dictionary.Scheme, len(l.Profiles)),
		materialize: l.Materialize,
	}
	for _, p := range l.Profiles {
		ld.schemes[p.IXP] = p.Scheme
	}
	var old *dataset
	if prev != nil {
		old = prev.loaded
	}
	var rep LoadReport

	// Carry over every file the predecessor already holds; open the new
	// deltas (they decode lazily, so this is cheap) and decode the new
	// full files.
	var news []int
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
		if !lf.carried {
			news = append(news, i)
			if lf.delta {
				rep.Opened++
			} else {
				rep.Decoded++
			}
		}
		ld.files = append(ld.files, lf)
	}
	if len(news) > 0 {
		runPool(len(news), l.Parallel, func(k int) error {
			if i := news[k]; ld.files[i].delta {
				ld.open(i)
			} else {
				ld.decode(i)
			}
			return nil
		})
	}

	// Group the parsed files of the studied IXPs by IXP — counted first,
	// then carved out of one index slice — and plan each IXP's fold
	// against the predecessor's. Only the IXPs with something to fold go
	// to the pool, one task each, in lexical order.
	groups := make(map[string]*ixpLoad, len(l.Profiles))
	ixps := make([]*ixpLoad, 0, len(l.Profiles))
	parsed := 0
	for i := range ld.files {
		f := &ld.files[i]
		if f.bad != nil || ld.schemes[f.ixp] == nil {
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
		if f.bad != nil || ld.schemes[f.ixp] == nil {
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
			if k, ok := slices.BinarySearchFunc(old.chains, x.ixp, byIXP); ok {
				x.prev = old.chains[k]
			}
		}
		if ld.plan(x); x.out == nil {
			folds = append(folds, x)
		}
	}
	runPool(len(folds), l.Parallel, func(g int) error {
		ld.applyChain(folds[g])
		return nil
	})

	for _, delta := range [...]bool{true, false} {
		for i := range ld.files {
			if f := &ld.files[i]; f.delta == delta && f.bad != nil {
				rep.Skipped = append(rep.Skipped, Skipped{Op: "load", File: f.Name, Err: f.bad})
			}
		}
	}
	ds := &dataset{files: ld.files, chains: make([]*chain, len(ixps))}
	l.Series = make(map[string][]analysis.DayCounts, len(ixps))
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
		l.Series[x.ixp] = c.counts
	}
	rep.Reused = days - rep.Advanced - rep.Rebuilt
	l.Digest, l.loaded = l.digest(ds.chains), ds

	// The latest day of each IXP carries its index into the lab, which
	// holds no other: a profile the dataset has no day of is not
	// studied. A header-only day comes with its index. A materialized
	// one (l.Materialize) is indexed here from its routes, unless prev
	// serves the same day and already did.
	clear(l.Indexes)
	var builds []int
	for i, p := range l.Profiles {
		x := groups[p.IXP]
		if x == nil || len(x.out.days) == 0 {
			continue
		}
		day := x.out.newest()
		ix := day.ix
		if ix == nil && prev != nil && prev.Indexes[p.IXP] != nil && prev.Indexes[p.IXP].Snapshot() == day.snap {
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
		runPool(len(builds), l.Parallel, func(k int) error {
			p := l.Profiles[builds[k]]
			built[k] = analysis.NewIndex(groups[p.IXP].out.newest().snap, p.Scheme)
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

// Tip returns the hex sha256 of the file ixp's served day came from —
// for a delta its seal, which names its whole chain — or "" when the
// lab holds no day of ixp.
func (l *Lab) Tip(ixp string) string {
	if l.loaded != nil {
		if k, ok := slices.BinarySearchFunc(l.loaded.chains, ixp, byIXP); ok {
			return l.loaded.chains[k].tip
		}
	}
	return ""
}

func byIXP(c *chain, ixp string) int { return strings.Compare(c.ixp, ixp) }

// digest is Lab.Digest over chains, each hashed when it was folded.
func (l *Lab) digest(chains []*chain) (sum [sha256.Size]byte) {
	h := sha256.New()
	var buf [64]byte
	for _, p := range l.Profiles {
		h.Write(append(append(buf[:0], p.IXP...), 0))
	}
	b := strconv.AppendInt(buf[:0], l.Seed, 10)
	h.Write(strconv.AppendFloat(append(b, 0), l.Scale, 'g', -1, 64))
	for _, c := range chains {
		if len(c.days) > 0 {
			h.Write(c.sum[:])
		}
	}
	h.Sum(sum[:0])
	return sum
}

// loadedFile is one file table entry.
type loadedFile struct {
	collector.File
	delta bool
	// The header facts, known once the file opened (bad is nil).
	ixp, date string
	base      string // deltas: the day this one extends
	// day is the day a full file of a studied IXP decoded to; nil when
	// it did not.
	day *chainDay
	// bad is why the file does not open — unreadable, truncated, not a
	// snapshot. It holds for as long as (name, size, mtime) does, so the
	// file is not tried again.
	bad error
	// carried marks, during one Load, an entry taken over from the
	// predecessor and not decoded since.
	carried bool
}

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
	days    []*chainDay // the IXP's series, by date
	// counts are days' counts, in the same order: the lab's Series.
	counts []analysis.DayCounts
	// sum hashes the IXP and each day's date and file digest; tip is the
	// hex file digest of the served day (seal).
	sum [sha256.Size]byte
	tip string
}

// newest is the day the IXP serves.
func (c *chain) newest() *chainDay { return c.days[len(c.days)-1] }

// seal names a folded chain of at least one day by its content; a chain
// shared with the predecessor keeps its names.
func (c *chain) seal() {
	h := sha256.New()
	var buf [64]byte
	h.Write(append(append(buf[:0], c.ixp...), 0))
	for _, d := range c.days {
		b := append(append(buf[:0], d.counts.Date...), 0)
		h.Write(append(b, d.file[:]...))
	}
	h.Sum(c.sum[:0])
	var tip [2 * sha256.Size]byte
	hex.Encode(tip[:], c.newest().file[:])
	c.tip = string(tip[:])
}

// chainDay is one day a fold produced, and the counts it publishes. A
// day comes off the fold as a header-only snapshot with the index that
// produced it — counts-only until it is served — or, in the Materialize
// reference, as a routed snapshot with no index, counted by a walk of
// its routes. Once its IXP is folded, a day the IXP does not serve is
// released: it keeps its counts and file digest, and snap and ix are
// nil.
type chainDay struct {
	snap   *collector.Snapshot
	ix     *analysis.Index
	counts analysis.DayCounts
	// file is the sha256 of the file the day came from: a .bin's bytes,
	// a delta's seal.
	file [sha256.Size]byte
}

func indexedDay(ix *analysis.Index) *chainDay {
	return &chainDay{snap: ix.Snapshot(), ix: ix, counts: ix.DayCounts()}
}

func routedDay(s *collector.Snapshot) *chainDay {
	return &chainDay{snap: s, counts: analysis.CountDay(s)}
}

// step is one delta file's turn in a fold.
type step struct {
	collector.File
	err error // why it produced no day; nil when it did
}

type loader struct {
	dir string
	// schemes classifies the studied IXPs, the only ones loaded.
	schemes map[string]*dictionary.Scheme
	// materialize decodes routes: the lab's Materialize reference.
	materialize bool
	files       []loadedFile
	// readers holds, parallel to files, the deltas opened so far. An
	// entry is written by the pool task that opens the file and read
	// only by its IXP's fold.
	readers []*collector.DeltaReader
}

// open parses delta file i's header, and keeps the reader when the
// delta is a studied IXP's, for its fold.
func (ld *loader) open(i int) {
	f := &ld.files[i]
	dr, err := collector.OpenDelta(filepath.Join(ld.dir, f.Name))
	if err != nil {
		f.bad = listedName(err, f.Name)
		return
	}
	f.ixp, f.date, f.base = dr.IXP(), dr.Date(), dr.BaseDate()
	if ld.schemes[f.ixp] != nil {
		ld.readers[i] = dr
	}
}

// listedName makes an open, read or map failure name the file as the
// listing does, so no reason a load reports names the directory the
// dataset lies in.
func listedName(err error, name string) error {
	if pe := (*fs.PathError)(nil); errors.As(err, &pe) {
		pe.Path = name
	}
	return err
}

// decode loads full file i through the one snapshot reader (mmap where
// the platform provides it). A studied IXP's day is not materialized:
// its index is built off the columns, over a header-only snapshot, as
// the head of a chain that later days can advance — unless the lab is
// the Materialize reference. Any other IXP's file is read up to its
// header.
func (ld *loader) decode(i int) {
	f := &ld.files[i]
	f.carried, f.day, f.bad = false, nil, nil
	sr, err := collector.OpenSnapshotAt(filepath.Join(ld.dir, f.Name))
	if err != nil {
		f.bad = listedName(err, f.Name)
		return
	}
	defer sr.Close()
	head := sr.Header()
	f.ixp, f.date = head.IXP, head.Date
	scheme := ld.schemes[head.IXP]
	switch {
	case scheme == nil:
	case ld.materialize:
		var s *collector.Snapshot
		if s, f.bad = sr.Snapshot(); f.bad == nil {
			f.day = routedDay(s)
		}
	default:
		var ix *analysis.Index
		if ix, f.bad = analysis.IndexSeriesFromReader(sr, scheme); f.bad == nil {
			f.day = indexedDay(ix)
		}
	}
	if f.day != nil {
		f.day.file = sr.Digest()
	}
}

// applyChain is the per-IXP fold every load goes through. The chains of
// different IXPs never interact — every lookup is keyed by IXP — so each
// IXP is one task on the worker pool, touching only its own entries of
// ld.files and ld.readers.
//
// The IXP's days start as its full files' days (or, when the
// predecessor's fold is a prefix of this one, as the predecessor's
// days: see plan), and each delta in date order looks its base day up
// among them. The base's index owns its chain state and the delta
// advances it into the next header-only, counts-only day; the
// Materialize reference runs the chain through a DeltaApplier instead.
// Either way the new day joins the IXP's days, where a later delta
// finds its base. The fold then serves one day per date, the one base
// lookup finds.
//
// A delta that cannot apply is skipped, recorded on its step, and the
// fold goes on: its successors miss their base day and are skipped in
// turn. If it failed partway through Advance or Apply the chain state
// it touched is undefined, so the IXP folds again from its chain heads
// without it. The day the IXP ends up serving is materialized, and
// every other day released.
func (ld *loader) applyChain(x *ixpLoad) {
	pc, from := x.prev, x.from
	// corrupt holds the deltas that failed partway through applying, and
	// how: a later attempt leaves them out.
	var corrupt map[int]error

	for {
		c := &chain{ixp: x.ixp, fulls: len(x.fulls), steps: make([]step, len(x.deltas))}
		extending := from >= 0
		if extending {
			copy(c.steps, pc.steps[:from])
			c.applied = pc.applied
			c.days = make([]*chainDay, len(pc.days), len(pc.days)+len(x.deltas)-from)
			copy(c.days, pc.days)
		} else {
			from = 0
			c.days = make([]*chainDay, 0, len(x.fulls)+len(x.deltas))
			for _, i := range x.fulls {
				// A chain head that no longer owns its state — a delta
				// advanced it, or an earlier fold released it — is
				// decoded again if a delta may extend it.
				f := &ld.files[i]
				if f.day != nil && !ld.extendable(f.day) && slices.ContainsFunc(x.deltas, func(k int) bool { return ld.files[k].base == f.date }) {
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
			var base *chainDay
			for d := len(c.days) - 1; d >= 0 && base == nil; d-- {
				if c.days[d].counts.Date == f.base {
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
			if extending && !ld.extendable(base) {
				// A day an earlier fold released: only a fold from the
				// chain heads can extend it.
				poisoned = true
				break
			}
			var next *chainDay
			if !ld.materialize {
				if f.date < base.counts.Date {
					// The day this delta makes sorts before its base, so
					// the base may still be the IXP's newest day: ready it
					// to serve while it owns the chain state. A base that
					// no longer does fails here and in Advance alike, and
					// Advance reports it.
					_ = base.ix.Materialize()
				}
				var ix *analysis.Index
				if ix, st.err = base.ix.Advance(ld.readers[i]); st.err == nil {
					next = indexedDay(ix)
				}
			} else {
				app := appliers[f.base]
				if app == nil {
					app, st.err = collector.NewDeltaApplier(base.snap)
				}
				var s *collector.Snapshot
				if st.err == nil {
					if s, st.err = app.Apply(ld.readers[i]); st.err == nil {
						if appliers == nil {
							appliers = map[string]*collector.DeltaApplier{}
						}
						delete(appliers, f.base)
						appliers[s.Date] = app
						next = routedDay(s)
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
			next.file = ld.readers[i].SelfDigest()
			c.days = append(c.days, next)
			c.applied = k + 1
		}
		if poisoned {
			from = -1
			continue
		}
		// Date order, one day per date: the full files' days went in
		// first, in listing order, and the chained days after them, so
		// the last in of each date — the one base lookup finds — serves.
		slices.Reverse(c.days)
		slices.SortStableFunc(c.days, func(a, b *chainDay) int {
			return strings.Compare(a.counts.Date, b.counts.Date)
		})
		c.days = slices.CompactFunc(c.days, func(a, b *chainDay) bool { return a.counts.Date == b.counts.Date })
		// The day the IXP serves is materialized. A chained one is its
		// chain's newest day: a day some Advance superseded was either
		// materialized before (its successor sorts before it) or is
		// out-dated or shadowed by its successor. A full file's day an
		// earlier fold released is decoded again, or leaves the series
		// when its file changed since the listing (which reports it).
		for len(c.days) > 0 {
			// A Materialize lab's days are routed and carry no index.
			d := c.newest()
			if ld.materialize && d.snap != nil || d.ix != nil && d.ix.Materialize() == nil {
				break
			}
			c.days = c.days[:len(c.days)-1]
			if k := slices.IndexFunc(x.fulls, func(i int) bool { return ld.files[i].day == d }); k >= 0 {
				ld.decode(x.fulls[k])
				x.work.Decoded++
				if f := &ld.files[x.fulls[k]]; f.day != nil {
					c.days = append(c.days, f.day)
				}
			}
		}
		if len(c.days) > 0 {
			c.seal()
		}
		c.counts = make([]analysis.DayCounts, len(c.days))
		for k := range c.days {
			c.counts[k] = c.days[k].counts
		}
		reused := 0
		if extending {
			for _, d := range pc.days {
				if slices.Contains(c.days, d) {
					reused++
				}
			}
			x.work.Advanced = len(c.days) - reused
		} else {
			for _, i := range x.fulls {
				if f := &ld.files[i]; f.carried && f.day != nil && slices.Contains(c.days, f.day) {
					reused++
				}
			}
			x.work.Rebuilt = len(c.days) - reused
		}
		if len(c.days) > 0 {
			ld.release(x, c)
		}
		x.out = c
		return
	}
}

// extendable reports whether a delta can advance from d as it is.
func (ld *loader) extendable(d *chainDay) bool {
	if ld.materialize {
		return d.snap != nil
	}
	return d.ix.OwnsChain()
}

// release leaves every day of x's fold but the served one with its
// counts and file digest alone. Days this load made are released in
// place; the predecessor's served day, the one shared day that still
// holds an index, stays the predecessor's, and a released copy takes
// its place here. A served full file's day this load decoded drops its
// chain state too when no delta names it as its base (Index.Detach), as
// the chain state of a standalone day is garbage: a delta that lands on
// it later finds a head that does not own its state and decodes the
// file again.
func (ld *loader) release(x *ixpLoad, c *chain) {
	served := c.newest()
	if served.ix.OwnsChain() &&
		slices.ContainsFunc(x.fulls, func(i int) bool { return ld.files[i].day == served && !ld.files[i].carried }) &&
		!slices.ContainsFunc(x.deltas, func(k int) bool { return ld.files[k].base == served.counts.Date }) {
		_ = served.ix.Detach()
	}
	if x.prev != nil && len(x.prev.days) > 0 && x.prev.newest() != served {
		d := x.prev.newest()
		cp := &chainDay{counts: d.counts, file: d.file}
		if k := slices.Index(c.days, d); k >= 0 {
			c.days[k] = cp
		}
		for _, i := range x.fulls {
			if ld.files[i].day == d {
				ld.files[i].day = cp
			}
		}
	}
	for _, d := range c.days {
		if d != served && d.snap != nil {
			d.snap, d.ix = nil, nil
		}
	}
	for _, i := range x.fulls {
		if d := ld.files[i].day; d != nil && d != served && d.snap != nil {
			d.snap, d.ix = nil, nil
		}
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
	case n >= pc.applied && !ld.materialize:
		x.from = n
	}
}
