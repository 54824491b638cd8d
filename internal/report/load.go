package report

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
// decoded; "apply": the delta could not extend a chain — its plan left
// it out, or it did not apply) and Err is why. As an error it reads
// "<op> <file>: <why>".
type Skipped struct {
	Op   string
	File string
	Err  error
}

func (s *Skipped) Error() string { return s.Op + " " + s.File + ": " + s.Err.Error() }
func (s *Skipped) Unwrap() error { return s.Err }

// LoadReport is what one Load did: the files it could not use, in the
// order a sequential load meets them (unreadable deltas, then
// undecodable snapshots, both by name; then the deltas left out, by IXP
// and date), and the work it took — delta files opened, snapshot files
// decoded, deltas applied — next to where the served days came from:
// reused from the predecessor, advanced from a reused chain tip, or
// rebuilt (decoded from a full file, or re-folded from a chain base).
type LoadReport struct {
	Skipped                   []Skipped
	Opened, Decoded, Advances int
	Reused, Advanced, Rebuilt int
}

// LoadSnapshotDir fills the lab with the dataset in dir: Load over a
// fresh listing with no predecessor. A file the loader had to skip is
// an error — the first one a sequential load meets, so with several
// broken chains the lexically first IXP's earliest broken day — and the
// lab then holds the days that did load.
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
// (collector.ListDir order). Per studied IXP, collector.Plan reads its
// files into days and the loader folds the plan: the days it serves are
// the temporal experiments' series, the newest the point-in-time input.
// Another IXP's file stays in the file table, so no later Load opens it
// again, but is never decoded. prev is the lab a previous Load of the
// same directory filled (nil for none; configured like l).
//
//   - A file whose (name, size, mtime) prev holds is not opened again and
//     keeps the day prev made of it. Loaded days are immutable, so prev
//     keeps serving while, and after, l is built from it.
//   - An IXP all of whose files prev holds shares prev's fold; any other
//     is planned and folded again, a new delta advancing its base's
//     index while that index owns the chain state (prev's served day
//     does) and the state made again from the chain's head otherwise.
//   - Nothing fails the load: a file that cannot be read, decoded or
//     applied, and a delta the plan leaves out, is reported in
//     LoadReport.Skipped; a file that does not open or apply is not
//     tried again while its (name, size, mtime) stays.
//
// Each day keeps the sha256 of the file it came from, and each IXP's
// fold is hashed as it is folded, so Digest names the served data by
// content. A full file decodes off its columns into a counts-only index
// that owns its chain state (analysis.IndexSeriesFromReader), or to
// routes when l.Materialize is set. The served day keeps its index,
// materialized (built from its routes, for a routed day) — l.Indexes
// holds it — and every other day only its counts and file digest. Files decode, and IXPs fold, across the lab's
// worker pool; the result is the same for any worker count.
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

	// Carry over every file the predecessor holds; open the new deltas
	// and decode the new full files.
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
				lf.carried, lf.made = true, false
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
		facts := make([]collector.DayFile, len(news))
		for k, i := range news {
			f := &ld.files[i]
			facts[k].Name, facts[k].Delta, f.facts = f.Name, f.delta, &facts[k]
		}
		runPool(len(news), l.Parallel, func(k int) error {
			if i := news[k]; ld.files[i].delta {
				ld.open(i)
			} else {
				ld.decode(i)
			}
			return nil
		})
	}

	// The studied IXPs' files, by IXP and date; the IXPs to fold go to
	// the pool.
	parsed := make([]int, 0, len(ld.files))
	for i := range ld.files {
		if f := &ld.files[i]; f.bad == nil && ld.schemes[f.ixp] != nil {
			parsed = append(parsed, i)
		}
	}
	slices.SortStableFunc(parsed, func(a, b int) int {
		return cmp.Or(strings.Compare(ld.files[a].ixp, ld.files[b].ixp), strings.Compare(ld.files[a].facts.Date, ld.files[b].facts.Date))
	})
	ixps := make([]*ixpLoad, 0, len(l.Profiles))
	folds := make([]*ixpLoad, 0, len(l.Profiles))
	for len(parsed) > 0 {
		n := 1
		for n < len(parsed) && ld.files[parsed[n]].ixp == ld.files[parsed[0]].ixp {
			n++
		}
		x := &ixpLoad{ixp: ld.files[parsed[0]].ixp, files: parsed[:n:n]}
		parsed = parsed[n:]
		ixps = append(ixps, x)
		if old != nil {
			if k, ok := slices.BinarySearchFunc(old.chains, x.ixp, byIXP); ok {
				x.prev = old.chains[k]
			}
		}
		if pc := x.prev; pc != nil && pc.files == len(x.files) && !slices.ContainsFunc(x.files, func(i int) bool { return !ld.files[i].carried }) {
			x.out = pc
		} else {
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
		rep.Skipped = append(rep.Skipped, c.skipped...)
		rep.Opened += x.work.Opened
		rep.Decoded += x.work.Decoded
		rep.Advances += x.work.Advances
		rep.Advanced += x.work.Advanced
		rep.Rebuilt += x.work.Rebuilt
		if len(c.days) > 0 {
			days += len(c.days)
			l.Series[x.ixp] = c.counts
		}
	}
	rep.Reused = days - rep.Advanced - rep.Rebuilt
	l.Digest, l.loaded = l.digest(ds.chains), ds

	clear(l.Indexes)
	for _, c := range ds.chains {
		if len(c.days) > 0 {
			l.Indexes[c.ixp] = c.newest().ix
		}
	}
	return rep
}

// dataset is what a Load leaves on its lab for the next one to start
// from, immutable once the Load returns: the file table and, per IXP,
// its fold. It holds days, never a DeltaReader (which aliases a file).
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

// loadedFile is one file table entry: the IXP its header names, the
// facts the plan reads (set by the load that opened the file and shared
// with the loads that carry it, so never written after: fail copies
// them), the day the file made, if any, why it does not open, whether
// this load took the entry over from the predecessor and whether it
// made the file's day.
type loadedFile struct {
	collector.File
	delta, carried, made bool
	ixp                  string
	facts                *collector.DayFile
	day                  *chainDay
	bad                  error
}

// ixpLoad is one IXP's share of a Load: its files as indexes into
// loader.files, by date, the fold the predecessor left, the plan and the
// outcome. rebuilt marks a fold that decoded a file or made a chain
// state again: its new days count as rebuilt, not advanced.
type ixpLoad struct {
	ixp     string
	files   []int
	prev    *chain
	plan    collector.DayPlan
	rebuilt bool
	out     *chain
	work    LoadReport
}

// chain is one IXP's fold: how many files went in, the days it serves
// by date and their counts (the lab's Series), the deltas its plan left
// out, the hash of each day's date and file digest, and the hex file
// digest of the served day.
type chain struct {
	ixp     string
	files   int
	days    []*chainDay
	counts  []analysis.DayCounts
	skipped []Skipped
	sum     [sha256.Size]byte
	tip     string
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

// chainDay is one day a fold produced: a header-only snapshot with the
// index that produced it — counts-only until it is served — or, in the
// Materialize reference, a routed snapshot counted by a walk of its
// routes. A day its IXP does not serve is released to its counts and
// the digest of the file it came from.
type chainDay struct {
	snap   *collector.Snapshot
	ix     *analysis.Index
	counts analysis.DayCounts
	file   [sha256.Size]byte
}

func indexedDay(ix *analysis.Index, file [sha256.Size]byte) *chainDay {
	return &chainDay{snap: ix.Snapshot(), ix: ix, counts: ix.DayCounts(), file: file}
}

func routedDay(s *collector.Snapshot, file [sha256.Size]byte) *chainDay {
	return &chainDay{snap: s, counts: analysis.CountDay(s), file: file}
}

// loader is one Load at work: schemes classifies the studied IXPs,
// materialize decodes routes (the Materialize reference), and readers
// holds, parallel to files, the deltas opened so far — each written by
// the task that opens it and read only by its IXP's fold.
type loader struct {
	dir         string
	schemes     map[string]*dictionary.Scheme
	materialize bool
	files       []loadedFile
	readers     []*collector.DeltaReader
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
	if f.ixp = dr.IXP(); !f.carried {
		f.facts.Date, f.facts.BaseDate = dr.Date(), dr.BaseDate()
		f.facts.Digest, f.facts.Base = dr.SelfDigest(), dr.BaseDigest()
	}
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

// decode loads full file i through the one snapshot reader: a studied
// IXP's day indexed off the columns as a chain head later days can
// advance (routed for the Materialize reference), any other IXP's file
// up to its header.
func (ld *loader) decode(i int) {
	f := &ld.files[i]
	f.day, f.bad = nil, nil
	sr, err := collector.OpenSnapshotAt(filepath.Join(ld.dir, f.Name))
	if err != nil {
		f.bad = listedName(err, f.Name)
		return
	}
	defer sr.Close()
	head := sr.Header()
	scheme := ld.schemes[head.IXP]
	if f.ixp = head.IXP; !f.carried {
		f.facts.Date = head.Date
		if scheme != nil {
			f.facts.Digest = sr.Digest()
		}
	}
	switch {
	case scheme == nil:
	case ld.materialize:
		var s *collector.Snapshot
		if s, f.bad = sr.Snapshot(); f.bad == nil {
			f.day, f.made = routedDay(s, f.facts.Digest), true
		}
	default:
		var ix *analysis.Index
		if ix, f.bad = analysis.IndexSeriesFromReader(sr, scheme); f.bad == nil {
			f.day, f.made = indexedDay(ix, f.facts.Digest), true
		}
	}
}

// usable reports whether f opened again; a file gone since the listing
// fails.
func (f *loadedFile) usable() bool { return f.bad == nil || f.fail(f.bad) }

// fail leaves f out of the plans that follow, and of later loads' while
// its (name, size, mtime) stays: err goes on a copy of its facts, which
// the predecessor may share.
func (f *loadedFile) fail(err error) bool {
	facts := *f.facts
	facts.Err, f.facts = err, &facts
	return false
}

// applyChain plans and folds one IXP, touching only its own entries of
// ld.files and ld.readers. A fold that meets a file it cannot use — a
// delta that does not apply, a file gone since the listing — records
// why on the file and plans again without it.
func (ld *loader) applyChain(x *ixpLoad) {
	facts := make([]*collector.DayFile, len(x.files))
	x.rebuilt = x.prev == nil || ld.materialize ||
		slices.ContainsFunc(x.files, func(i int) bool { return !ld.files[i].delta && !ld.files[i].carried })
	for {
		for j, i := range x.files {
			facts[j] = ld.files[i].facts
		}
		if x.plan = collector.Plan(facts); ld.materialize && ld.foldRoutes(x) || !ld.materialize && ld.fold(x) {
			break
		}
	}

	p := &x.plan
	c := &chain{ixp: x.ixp, files: len(x.files), days: make([]*chainDay, len(p.Served)), counts: make([]analysis.DayCounts, len(p.Served))}
	made := 0
	for k, j := range p.Served {
		f := &ld.files[x.files[j]]
		c.days[k], c.counts[k] = f.day, f.day.counts
		if f.made {
			made++
		}
	}
	if x.rebuilt {
		x.work.Rebuilt = made
	} else {
		x.work.Advanced = made
	}
	// The deltas the plan left out, by date (a full file is left out
	// only shadowed, or when it does not open).
	for j, i := range x.files {
		if ld.files[i].delta && ld.files[i].bad == nil {
			if err := p.Err(j); err != nil {
				c.skipped = append(c.skipped, Skipped{Op: "apply", File: p.Files[j].Name, Err: err})
			}
		}
	}
	if len(c.days) > 0 {
		// The Materialize reference indexes its served day from its routes.
		if d := c.newest(); d.ix == nil {
			d.ix = analysis.NewIndex(d.snap, ld.schemes[x.ixp])
		}
		c.seal()
		ld.release(x, c)
	}
	x.out = c
}

// fold runs x's plan through Index.Advance: a file keeps the day it made
// before, and every other folded file makes its day. It reports false
// when a file turned out unusable.
func (ld *loader) fold(x *ixpLoad) bool {
	for _, j := range x.plan.Order {
		if ld.files[x.files[j]].day == nil && !ld.make(x, j) {
			return false
		}
	}
	// The served day is materialized: before an Advance superseded it
	// (make), or after its chain state is made again.
	if tip := x.plan.Tip(); tip >= 0 {
		if d := ld.files[x.files[tip]].day; d.ix == nil || d.ix.Materialize() != nil {
			ix := ld.state(x, int32(tip))
			if ix == nil {
				return false
			}
			_ = ix.Materialize()
		}
	}
	return true
}

// make makes planned file j's day: a full file decoded, a delta
// advanced from its base's chain state.
func (ld *loader) make(x *ixpLoad, j int32) bool {
	i := x.files[j]
	f := &ld.files[i]
	if !f.delta {
		ld.decode(i)
		x.work.Decoded++
		x.rebuilt = true
		return f.usable()
	}
	b := x.plan.Base[j]
	base := ld.state(x, b)
	if base == nil {
		return false
	}
	if ld.readers[i] == nil {
		// Carried from the predecessor, which kept no reader.
		x.work.Opened++
		if ld.open(i); !f.usable() {
			return false
		}
	}
	if int(b) == x.plan.Tip() {
		// This delta is dated before its base, which serves: ready the
		// base to serve while it owns the chain state.
		_ = base.Materialize()
	}
	ix, err := base.Advance(ld.readers[i])
	if err != nil {
		// A failed Advance may leave the chain state half-applied, so the
		// base's day is made again if it is needed.
		ld.files[x.files[b]].day = nil
		return f.fail(err)
	}
	x.work.Advances++
	f.day, f.made = indexedDay(ix, f.facts.Digest), true
	return true
}

// state returns the index owning planned file j's chain state, making
// the day again from its chain's head when its index no longer owns it
// (an Advance took it on, or a fold released the day); nil when a file
// turned out unusable.
func (ld *loader) state(x *ixpLoad, j int32) *analysis.Index {
	f := &ld.files[x.files[j]]
	if f.day == nil || !f.day.ix.OwnsChain() {
		x.rebuilt = true
		if !ld.make(x, j) {
			return nil
		}
	}
	return f.day.ix
}

// foldRoutes is the Materialize reference's fold of x's plan, sharing
// no index builder with fold: full files decoded to routes, and every
// delta applied through a DeltaApplier (collector.DayPlan.Replay) into a
// routed day.
func (ld *loader) foldRoutes(x *ixpLoad) bool {
	p := &x.plan
	for _, j := range p.Order {
		i := x.files[j]
		f := &ld.files[i]
		if !f.delta && (f.day == nil || f.day.snap == nil) {
			ld.decode(i)
			x.work.Decoded++
		} else if f.delta && ld.readers[i] == nil {
			x.work.Opened++
			ld.open(i)
		}
		if !f.usable() {
			return false
		}
	}
	snap := func(j int) (*collector.Snapshot, error) { return ld.files[x.files[j]].day.snap, nil }
	reader := func(j int) *collector.DeltaReader { return ld.readers[x.files[j]] }
	var app *collector.DeltaApplier
	at := -1
	for _, j := range p.Order {
		f := &ld.files[x.files[j]]
		if !f.delta {
			continue
		}
		var s *collector.Snapshot
		var err error
		if app, s, err = p.Replay(app, at, int(j), snap, reader); err != nil {
			return f.fail(err)
		}
		x.work.Advances++
		f.day, f.made = routedDay(s, f.facts.Digest), true
		at = int(j)
	}
	return true
}

// release leaves every day of x's files but the served one with its
// counts and file digest alone; the predecessor's served day stays the
// predecessor's, and a released copy takes its place here. A served
// full file's day this load decoded drops its chain state too when no
// delta extends it (Index.Detach).
func (ld *loader) release(x *ixpLoad, c *chain) {
	served := c.newest()
	if tip := &ld.files[x.files[x.plan.Tip()]]; served.ix.OwnsChain() && !tip.delta && tip.made &&
		!slices.ContainsFunc(x.files, func(i int) bool { return ld.files[i].delta && ld.files[i].facts.Base == tip.facts.Digest }) {
		_ = served.ix.Detach()
	}
	if x.prev != nil && len(x.prev.days) > 0 && x.prev.newest() != served {
		d := x.prev.newest()
		cp := &chainDay{counts: d.counts, file: d.file}
		if k := slices.Index(c.days, d); k >= 0 {
			c.days[k] = cp
		}
		for _, i := range x.files {
			if ld.files[i].day == d {
				ld.files[i].day = cp
			}
		}
	}
	for _, i := range x.files {
		if d := ld.files[i].day; d != nil && d != served && d.snap != nil {
			d.snap, d.ix = nil, nil
		}
	}
}
