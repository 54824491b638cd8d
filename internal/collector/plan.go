package collector

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
)

// DayFile is what Plan reads of one dataset file of an IXP. Digest is
// its chain digest (a .bin's SnapshotDigest, a delta's SelfDigest), Base
// and BaseDate a delta's BaseDigest and BaseDate; Err, when set, leaves
// the file out (it does not open, or did not apply). Name only names the
// file in a reason.
type DayFile struct {
	Name         string
	Delta        bool
	Date         string
	Digest, Base [sha256.Size]byte
	BaseDate     string
	Err          error
}

// DayPlan is the one reading of an IXP's dataset files: which file is
// which day. A delta extends the file whose digest is its base digest,
// so the files make a forest rooted at the .bin files. Of the files of
// one date the roots reach, one serves it: a delta before a .bin (a
// chained day shadows a full file's), then the one whose branch reaches
// the higher-ranked day (by date, then a delta over a .bin, then the
// lower digest), then the lower digest. Names and listing order decide
// nothing, but for which of two byte-identical files stands for both:
// the first listed.
type DayPlan struct {
	Files []*DayFile
	// Base is the file each file extends, or -1: a .bin, or a delta whose
	// base digest no file has.
	Base []int32
	// Order is the fold — every file a served day needs, each after its
	// base — and Served the file that serves each date, in date order:
	// the last serves the newest day, the tip. out is why each file is
	// left out of the fold, if it is.
	Order, Served, out []int32
}

// Why a file is left out of a DayPlan.
const (
	folded = iota
	outErr
	outNoBase
	outMismatch
	outShadowed
)

// Plan reads files, one IXP's, into its DayPlan. However many files it
// reads, it allocates once.
func Plan(files []*DayFile) DayPlan {
	n := len(files)
	slab := make([]int32, 9*n+1)
	take := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	p := DayPlan{Files: files, Base: take(n), out: take(n), Order: take(n)[:0], Served: take(n)[:0]}
	// best is the highest-ranked file of each file's subtree (-1 where the
	// roots do not reach), children a file's deltas.
	best, nodes, stack, start, kids := take(n), take(n)[:0], take(n)[:0], take(n+1), take(n)
	for i := range files {
		p.Base[i], p.out[i] = -1, outNoBase
		if files[i].Err != nil {
			p.out[i] = outErr
		} else {
			nodes = append(nodes, int32(i))
		}
	}
	slices.SortFunc(nodes, func(a, b int32) int {
		return cmp.Or(bytes.Compare(files[a].Digest[:], files[b].Digest[:]), cmp.Compare(a, b))
	})
	for _, i := range nodes {
		if files[i].Delta {
			k, ok := slices.BinarySearchFunc(nodes, files[i].Base, func(v int32, d [sha256.Size]byte) int {
				return bytes.Compare(files[v].Digest[:], d[:])
			})
			if ok {
				p.Base[i] = nodes[k]
				start[nodes[k]+1]++
			}
		}
	}
	for i := range n {
		start[i+1] += start[i]
	}
	copy(best, start[:n])
	for i, b := range p.Base {
		if b >= 0 {
			kids[best[b]] = int32(i)
			best[b]++
		}
	}
	children := func(v int32) []int32 { return kids[start[v]:start[v+1]] }

	// Reach from the roots depth first, each file after its base, then
	// rank each subtree from the leaves up. A delta whose bases do not end
	// at a .bin stays unreached.
	for i := range files {
		if best[i] = -1; files[i].Err == nil && !files[i].Delta {
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], children(v)...)
		best[v] = v
		p.Order = append(p.Order, v)
	}
	for _, v := range slices.Backward(p.Order) {
		for _, c := range children(v) {
			if p.cmpRank(best[c], best[v]) > 0 {
				best[v] = best[c]
			}
		}
	}

	// One file per date, then every file a served one extends.
	reached := append(nodes[:0], p.Order...)
	slices.SortFunc(reached, func(a, b int32) int {
		fa, fb := files[a], files[b]
		if fa.Date != fb.Date || fa.Delta != fb.Delta {
			return cmp.Or(strings.Compare(fa.Date, fb.Date), p.cmpRank(b, a))
		}
		return cmp.Or(p.cmpRank(best[b], best[a]), p.cmpRank(b, a), cmp.Compare(a, b))
	})
	for k, v := range reached {
		if k == 0 || files[v].Date != files[reached[k-1]].Date {
			p.Served = append(p.Served, v)
			for u := v; u >= 0 && p.out[u] != folded; u = p.Base[u] {
				p.out[u] = folded
			}
		}
	}

	p.Order = slices.DeleteFunc(p.Order, func(v int32) bool { return p.out[v] != folded })
	for i, f := range files {
		switch {
		case p.out[i] != outNoBase:
		case best[i] >= 0:
			p.out[i] = outShadowed
		case p.Base[i] < 0 && p.ServedAt(f.BaseDate) >= 0:
			p.out[i] = outMismatch
		}
	}
	return p
}

// cmpRank orders files a and b by the rank of their days: the date,
// then a delta over a .bin, then the lower digest.
func (p *DayPlan) cmpRank(a, b int32) int {
	fa, fb := p.Files[a], p.Files[b]
	if c := strings.Compare(fa.Date, fb.Date); c != 0 || fa.Delta == fb.Delta {
		return cmp.Or(c, bytes.Compare(fb.Digest[:], fa.Digest[:]))
	}
	if fa.Delta {
		return 1
	}
	return -1
}

// ServedAt returns the file that serves date, or -1.
func (p *DayPlan) ServedAt(date string) int {
	k, ok := slices.BinarySearchFunc(p.Served, date, func(v int32, date string) int {
		return strings.Compare(p.Files[v].Date, date)
	})
	if !ok {
		return -1
	}
	return int(p.Served[k])
}

// Tip returns the file that serves the newest day, or -1 for none.
func (p *DayPlan) Tip() int {
	if len(p.Served) == 0 {
		return -1
	}
	return int(p.Served[len(p.Served)-1])
}

// Err returns why file i is left out of the fold, nil when it is
// folded: its own Err; no snapshot for its base day (no file has its
// base digest, or that file is left out); its base day held only by
// files of other digests (ErrDeltaBaseMismatch); or shadowed by the
// file that serves its day.
func (p *DayPlan) Err(i int) error {
	f := p.Files[i]
	switch p.out[i] {
	case outErr:
		return f.Err
	case outNoBase:
		return fmt.Errorf("no snapshot for base day %s", f.BaseDate)
	case outMismatch:
		return fmt.Errorf("%w: no file of base day %s has the digest this delta extends", ErrDeltaBaseMismatch, f.BaseDate)
	case outShadowed:
		return fmt.Errorf("shadowed by %s, which serves day %s", p.Files[p.ServedAt(f.Date)].Name, f.Date)
	}
	return nil
}

// Replay returns a DeltaApplier standing at folded file i, and i's day:
// the fold Append and the loader's reference run. app, standing at file
// at, moves on when at is one of i's bases; otherwise a new applier
// starts at the .bin i's chain starts from. snap hands out a .bin's
// snapshot, delta a delta's reader.
func (p *DayPlan) Replay(app *DeltaApplier, at, i int, snap func(int) (*Snapshot, error), delta func(int) *DeltaReader) (*DeltaApplier, *Snapshot, error) {
	var path []int
	for ; i >= 0 && i != at; i = int(p.Base[i]) {
		path = append(path, i)
	}
	var s *Snapshot
	var err error
	if i < 0 {
		if s, err = snap(path[len(path)-1]); err == nil {
			app, err = NewDeltaApplier(s)
		}
		path = path[:len(path)-1]
	}
	for k := len(path) - 1; k >= 0 && err == nil; k-- {
		s, err = app.Apply(delta(path[k]))
	}
	return app, s, err
}
