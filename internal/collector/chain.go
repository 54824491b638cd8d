package collector

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
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
// chain, and returns the file path. Days are found as the loader finds
// them (ixpDays), so files renamed by hand still chain correctly.
//
//   - A day after the IXP's newest is a .delta against the newest day
//     that replays, or a .bin that heads a new chain when dir holds no
//     day of the IXP or the newest day's chain does not replay.
//   - A day before the newest that dir does not hold is a .bin, a chain
//     of its own.
//   - A day dir holds is replaced over its own file: a .delta against
//     the same base when that base replays, a .bin otherwise. Every
//     later day chained onto the old day is encoded again onto the new
//     one, over its own file, so the chain still loads; a crash partway
//     leaves those days unchained.
//
// So a crawl is never refused: re-collecting a day, finishing a partial
// one (collect -resume) and back-filling a missed one all land. logf
// narrates what is skipped.
func Append(dir string, s *Snapshot, logf func(string, ...any)) (string, error) {
	days, err := readIXPDays(dir, s.IXP, logf)
	if err != nil {
		return "", err
	}
	chain, path := Chain{Dir: dir}, days.bins[s.Date]
	if dd := days.deltas[s.Date]; dd != nil {
		if app, err := days.replay(dd.BaseDate()); err == nil {
			chain.tip, path = app.Encoder(), dd.path
		} else {
			logf("base day %s of %s does not replay (%v): writing the day as a .bin", dd.BaseDate(), s.Date, err)
		}
	} else if path == "" && (len(days.dates) == 0 || s.Date > days.dates[len(days.dates)-1]) {
		chain.tip = days.tip(logf)
	}
	// The day s replaces, which later days were encoded against.
	old, _ := days.replay(s.Date)
	out, err := chain.saveAt(s, path)
	for date := s.Date; err == nil && old != nil; {
		next := days.successor(date)
		if next == nil {
			break
		}
		day, aerr := old.Apply(next.DeltaReader)
		if aerr != nil {
			logf("%s does not replay (%v): left as it is", filepath.Base(next.path), aerr)
			break
		}
		_, err = chain.saveAt(day, next.path)
		date = day.Date
	}
	return out, err
}

// ixpDays is what a dataset directory holds of one IXP: the days whose
// files open, keyed by date. A file that does not open is logged and
// skipped, whichever IXP it belongs to, as the loader skips it. Of two
// files of one date the one the loader serves is kept: the first
// listed .delta (the loader's fold advances from the base with it, and
// then cannot advance the same base again) and the last listed .bin.
type ixpDays struct {
	bins   map[string]string    // date → the .bin's path
	deltas map[string]*dayDelta // date → the .delta
	dates  []string             // every date held, sorted
}

type dayDelta struct {
	*DeltaReader
	path string
}

func readIXPDays(dir, ixp string, logf func(string, ...any)) (*ixpDays, error) {
	days := &ixpDays{bins: map[string]string{}, deltas: map[string]*dayDelta{}}
	files, err := ListDir(dir, false)
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, errNoDataset) {
		return days, nil
	}
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		path := filepath.Join(dir, f.Name)
		if strings.HasSuffix(f.Name, DeltaExt) {
			switch dr, err := OpenDelta(path); {
			case err != nil:
				logf("skipping %s: %v", f.Name, err)
			case dr.IXP() != ixp:
			case days.deltas[dr.Date()] != nil:
				logf("skipping %s: %s holds day %s, and the loader serves the first listed", f.Name, filepath.Base(days.deltas[dr.Date()].path), dr.Date())
			default:
				days.deltas[dr.Date()] = &dayDelta{dr, path}
				days.dates = append(days.dates, dr.Date())
			}
			continue
		}
		sr, err := OpenSnapshotAt(path)
		if err != nil {
			logf("skipping %s: %v", f.Name, err)
			continue
		}
		if head := sr.Header(); head.IXP == ixp {
			days.bins[head.Date] = path
			days.dates = append(days.dates, head.Date)
		}
		sr.Close()
	}
	slices.Sort(days.dates)
	days.dates = slices.Compact(days.dates)
	return days, nil
}

// tip returns an encoder that extends the IXP's newest day that
// replays. A .bin that does not decode is skipped, as the loader skips
// it; when the newest delta's chain does not replay, tip returns nil
// and the caller starts a new chain.
func (d *ixpDays) tip(logf func(string, ...any)) *DeltaEncoder {
	for _, date := range slices.Backward(d.dates) {
		app, err := d.replay(date)
		switch {
		case err == nil:
			return app.Encoder()
		case d.deltas[date] == nil:
			logf("skipping %s: %v", filepath.Base(d.bins[date]), err)
			continue
		}
		logf("the chain ending at %s does not replay (%v): starting a new chain", date, err)
		return nil
	}
	return nil
}

// successor is the delta chained onto day date: the earliest later one
// whose base it is, the one a fold advances from date.
func (d *ixpDays) successor(date string) *dayDelta {
	i, _ := slices.BinarySearch(d.dates, date)
	for _, later := range d.dates[i:] {
		if dd := d.deltas[later]; dd != nil && later > date && dd.BaseDate() == date {
			return dd
		}
	}
	return nil
}

// replay rebuilds day date as the loader serves it: the day's .delta
// applied to its base day, rebuilt the same way, or — when the delta
// does not apply or there is none — the day's .bin. A delta is only
// followed to an earlier base, so base dates that loop end.
func (d *ixpDays) replay(date string) (*DeltaApplier, error) {
	var err error
	if dd := d.deltas[date]; dd != nil && dd.BaseDate() < date {
		var app *DeltaApplier
		if app, err = d.replay(dd.BaseDate()); err == nil {
			if _, err = app.Apply(dd.DeltaReader); err == nil {
				return app, nil
			}
		}
	}
	path := d.bins[date]
	if path == "" {
		if err == nil {
			err = fmt.Errorf("no snapshot for base day %s", date)
		}
		return nil, err
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return NewDeltaApplier(snap)
}
