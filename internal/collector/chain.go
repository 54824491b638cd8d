package collector

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Chain writes one IXP's days into Dir as a delta chain, the one shape
// a dataset is written in: the first day Save writes is a full binary
// snapshot, the chain's head, and every later day a .delta against the
// day before it. The zero Chain of a directory starts a new chain;
// Append continues the one on disk.
type Chain struct {
	Dir string
	// tip encodes the next day against the last one: nil until the head
	// is written.
	tip *DeltaEncoder
}

// Save writes s, the chain's next day (normalized, dated after the day
// before it), and returns the file path.
func (c *Chain) Save(s *Snapshot) (string, error) { return c.saveAt(s, "") }

// saveAt is Save writing over path, the file that holds the day, or
// under DatasetPath's name when path is "".
func (c *Chain) saveAt(s *Snapshot, path string) (string, error) {
	ext, write := CodecBinary.Ext(), func(w io.Writer) error { return WriteSnapshot(w, s, CodecBinary) }
	if c.tip != nil {
		buf, err := c.tip.Encode(s)
		if err != nil {
			return "", err
		}
		ext, write = DeltaExt, func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		}
	}
	if path == "" {
		path = DatasetPath(c.Dir, s, ext)
	}
	if err := AtomicWrite(path, write); err != nil {
		return "", err
	}
	if c.tip == nil {
		var err error
		if c.tip, err = NewDeltaEncoder(s); err != nil {
			return "", err
		}
	}
	return path, nil
}

// Append writes s, a crawled day, into dir as a day of its IXP's
// chain, and returns the file path. Days are read as the loader reads
// them (Plan), so files renamed or copied by hand still chain correctly.
//
//   - A day after the IXP's newest is a .delta against the newest day
//     (the plan's tip), or a .bin that heads a new chain when dir holds
//     no day of the IXP or the tip's chain does not replay.
//   - A day before the newest that no file serves is a .bin, a chain of
//     its own.
//   - A day a file serves is replaced over that file: a .delta against
//     the same base when that base replays, a .bin otherwise. Every day
//     the plan folds onto a file of that date (the old day, or another
//     crawl of it a served day was encoded against) is encoded again
//     onto the new one, over its own file, so the chain still loads; a
//     crash partway leaves those days unchained.
//   - The date's other files are then set aside — renamed with a
//     .replaced suffix, which no listing holds — so none of them can
//     serve the day in the new crawl's place: every one but those the
//     new day's own chain stands on, and the old day's file when the new
//     one does not go over it. A day folded onto one of them that does
//     not replay could not be served either.
//
// A new file never goes over another one: when a file (renamed by hand,
// say) holds DatasetPath's name, the day is written as <name>.2.<ext>,
// or the first such name that is free. So a crawl is never refused:
// re-collecting a day, finishing a partial one (collect -resume) and
// back-filling a missed one all land. logf narrates what is skipped and
// set aside.
func Append(dir string, s *Snapshot, logf func(string, ...any)) (string, error) {
	cf, err := openChainFiles(dir, s.IXP, logf)
	if err != nil {
		return "", err
	}
	p := &cf.plan
	chain, path, at := Chain{Dir: dir}, "", -1
	for {
		from := p.Tip()
		switch path, at = "", p.ServedAt(s.Date); {
		case at >= 0 && p.Files[at].Delta:
			path, from = filepath.Join(dir, p.Files[at].Name), int(p.Base[at])
		case at >= 0:
			path, from = filepath.Join(dir, p.Files[at].Name), -1
		case from >= 0 && s.Date < p.Files[from].Date:
			from = -1
		}
		if from < 0 {
			break
		}
		app, _, err := p.Replay(nil, -1, from, cf.snap, cf.reader)
		if err == nil {
			chain.tip = app.Encoder()
		} else if cf.replan() {
			continue
		} else {
			logf("the chain ending at %s does not replay (%v): starting a new chain", p.Files[from].Date, err)
			path = ""
		}
		break
	}

	// The days the plan folds onto a file of s's date — the one s
	// replaces, or another that a served day needs — read as they were,
	// in fold order, to be written again onto the new day; then no other
	// file of the date is needed.
	var sub []int32
	var days []*Snapshot
	var app *DeltaApplier
	appAt := -1
	for _, c := range p.Order {
		if at < 0 || p.Files[c].Date == s.Date || p.descends(int32(at), c) || !p.onDate(c, s.Date) {
			continue
		}
		var day *Snapshot
		if app, day, err = p.Replay(app, appAt, int(c), cf.snap, cf.reader); err != nil {
			logf("%s does not replay (%v): left as it is", p.Files[c].Name, err)
			continue
		}
		sub, days, appAt = append(sub, c), append(days, day), int(c)
	}
	for i, f := range p.Files {
		err := p.Err(i)
		if err != nil {
			logf("skipping %s: %v", f.Name, err)
		}
		if f.Date == s.Date && (i != at && !p.descends(int32(at), int32(i)) || i == at && path == "") {
			aside := freePath(filepath.Join(dir, f.Name+".replaced"), "")
			logf("setting %s aside as %s: day %s is crawled again", f.Name, filepath.Base(aside), s.Date)
			if err := os.Rename(filepath.Join(dir, f.Name), aside); err != nil {
				return "", err
			}
		}
	}
	if path == "" {
		ext := CodecBinary.Ext()
		if chain.tip != nil {
			ext = DeltaExt
		}
		path = freePath(DatasetPath(dir, s, ext), ext)
	}
	out, err := chain.saveAt(s, path)
	if at < 0 || err != nil {
		return out, err
	}
	if chain.tip == nil {
		p.Base[at] = -1 // the day heads a chain of its own now
	}
	err = cf.landed(at, out, s)
	for _, c := range sub {
		if p.Files[p.Base[c]].Date == s.Date {
			p.Base[c] = int32(at)
		}
	}
	encAt := int32(at)
	for k, c := range sub {
		if b := p.Base[c]; err == nil && b != encAt {
			if app, _, err = p.Replay(nil, -1, int(b), cf.snap, cf.reader); err == nil {
				chain.tip = app.Encoder()
			}
		}
		if err == nil {
			path, encAt = filepath.Join(dir, p.Files[c].Name), c
			if _, err = chain.saveAt(days[k], path); err == nil {
				err = cf.landed(int(c), path, days[k])
			}
		}
	}
	return out, err
}

// chainFiles is what a dataset directory holds of one IXP: its plan,
// and per planned file the snapshot a replay starts from (a .bin's,
// decoded when first replayed) or the opened delta it applies. stale
// marks a .bin that did not decode since the plan was made.
type chainFiles struct {
	dir     string
	plan    DayPlan
	snaps   []*Snapshot
	readers []*DeltaReader
	stale   bool
}

// openChainFiles opens every file of dir that holds a day of ixp, a
// .bin up to its header and digest, and plans them. A file that does
// not open is logged and skipped, whichever IXP it belongs to, as the
// loader skips it.
func openChainFiles(dir, ixp string, logf func(string, ...any)) (*chainFiles, error) {
	files, err := ListDir(dir, false)
	if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errNoDataset) {
		return nil, err
	}
	cf := &chainFiles{dir: dir}
	var facts []*DayFile
	for _, f := range files {
		path := filepath.Join(dir, f.Name)
		if strings.HasSuffix(f.Name, DeltaExt) {
			switch dr, err := OpenDelta(path); {
			case err != nil:
				logf("skipping %s: %v", f.Name, err)
			case dr.IXP() == ixp:
				facts = append(facts, &DayFile{Name: f.Name, Delta: true, Date: dr.Date(),
					Digest: dr.SelfDigest(), Base: dr.BaseDigest(), BaseDate: dr.BaseDate()})
				cf.readers = append(cf.readers, dr)
			}
			continue
		}
		sr, err := OpenSnapshotAt(path)
		if err != nil {
			logf("skipping %s: %v", f.Name, err)
			continue
		}
		if head := sr.Header(); head.IXP == ixp {
			facts = append(facts, &DayFile{Name: f.Name, Date: head.Date, Digest: sr.Digest()})
			cf.readers = append(cf.readers, nil)
		}
		sr.Close()
	}
	cf.snaps, cf.plan = make([]*Snapshot, len(facts)), Plan(facts)
	return cf, nil
}

// snap returns planned .bin i's snapshot, decoding it once. A .bin that
// does not decode is left out of the next plan.
func (cf *chainFiles) snap(i int) (*Snapshot, error) {
	if cf.snaps[i] == nil {
		f := cf.plan.Files[i]
		if cf.snaps[i], f.Err = LoadSnapshot(filepath.Join(cf.dir, f.Name)); f.Err != nil {
			cf.stale = true
			return nil, f.Err
		}
	}
	return cf.snaps[i], nil
}

func (cf *chainFiles) reader(i int) *DeltaReader { return cf.readers[i] }

// replan plans the files again when a .bin did not decode since the
// plan was made, and reports whether it did.
func (cf *chainFiles) replan() bool {
	if cf.stale {
		cf.stale, cf.plan = false, Plan(cf.plan.Files)
		return true
	}
	return false
}

// landed records that planned file i's day s now lies at path.
func (cf *chainFiles) landed(i int, path string, s *Snapshot) (err error) {
	if cf.snaps[i] = s; cf.plan.Base[i] >= 0 {
		cf.readers[i], err = OpenDelta(path)
	}
	return err
}

// freePath returns path, or when a file holds that name already, the
// first of path with .2, .3, … put before ext that none holds.
func freePath(path, ext string) string {
	stem := strings.TrimSuffix(path, ext)
	for k := 2; ; k++ {
		if _, err := os.Lstat(path); errors.Is(err, fs.ErrNotExist) {
			return path
		}
		path = stem + "." + strconv.Itoa(k) + ext
	}
}

// descends reports whether planned file i is folded onto file a; no
// file descends from -1, and -1 from none.
func (p *DayPlan) descends(i, a int32) bool {
	for i >= 0 {
		if i = p.Base[i]; i == a {
			return i >= 0
		}
	}
	return false
}

// onDate reports whether planned file i is folded onto a file of date.
func (p *DayPlan) onDate(i int32, date string) bool {
	for i = p.Base[i]; i >= 0 && p.Files[i].Date != date; i = p.Base[i] {
	}
	return i >= 0
}
