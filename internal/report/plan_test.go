package report

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
)

// planWorld is a small dataset directory of two IXPs that FuzzDayPlan
// changes one step at a time, the way hands and collectors change one.
type planWorld struct {
	t        *testing.T
	dir      string
	profiles []ixpgen.Profile
	// made counts the days made so far; it is each day's FilteredCount,
	// so no two days are alike and no file links to a day it was not
	// encoded against.
	made int
}

var planPrefixes = [...]string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24", "100.64.0.0/10",
	"2001:db8::/32", "2001:db8:1::/48", "2001:db8:2::/48", "2001:db8:3::/48"}

// day makes a new day of ixp on date (a day of October 2021) announcing
// the prefixes the bits of pick choose.
func (w *planWorld) day(ixp string, date int, pick byte) *collector.Snapshot {
	w.made++
	s := &collector.Snapshot{IXP: ixp, Date: fmt.Sprintf("2021-10-%02d", date), FilteredCount: w.made,
		Members: []collector.Member{{ASN: 64500, Name: "m", IPv4: true, IPv6: true}}}
	for k, p := range planPrefixes {
		if pick>>k&1 == 1 {
			s.Routes = append(s.Routes, bgp.Route{Prefix: netip.MustParsePrefix(p),
				NextHop: netip.MustParseAddr("192.0.2.1"), ASPath: bgp.ASPath{64500, uint32(64501 + k)}})
		}
	}
	s.Normalize()
	return s
}

func dayOf(date string) (d int) {
	fmt.Sscanf(date, "2021-10-%d", &d)
	return d
}

// load loads the directory fresh, through the production fold or the
// Materialize reference.
func (w *planWorld) load(materialize bool) (*Lab, LoadReport) {
	lab := NewLabShell(w.profiles, 42, 0.002, 1)
	lab.Materialize = materialize
	files, err := collector.ListDir(w.dir, false)
	if err != nil {
		return lab, LoadReport{}
	}
	return lab, lab.Load(w.dir, files, nil)
}

// file picks one of the directory's dataset files, or "" when it holds
// none.
func (w *planWorld) file(arg byte) string {
	files, err := collector.ListDir(w.dir, false)
	if err != nil {
		return ""
	}
	return filepath.Join(w.dir, files[int(arg)%len(files)].Name)
}

// step runs one op on the directory and checks what it must hold.
func (w *planWorld) step(op, arg byte) string {
	ixp := w.profiles[arg&1].IXP
	lab, _ := w.load(false)
	served := lab.Series[ixp]
	newest := 0
	if len(served) > 0 {
		newest = dayOf(served[len(served)-1].Date)
	}
	switch op % 7 {
	case 0, 1: // collect a day after the IXP's newest, or again one at or before it
		date := newest + 1 + int(arg>>1)%3
		if op%7 == 1 && newest > 0 {
			date = 1 + int(arg>>1)%newest
		}
		d := w.day(ixp, date, arg)
		if _, err := collector.Append(w.dir, d, func(string, ...any) {}); err != nil {
			w.t.Fatal(err)
		}
		w.checkAppended(served, d)
		return "append " + ixp + " " + d.Date
	case 2: // another crawl of a served day, on the same base
		if len(served) == 0 {
			return "no day to crawl again"
		}
		date := dayOf(served[int(arg>>1)%len(served)].Date)
		aside := w.t.TempDir()
		files, _ := collector.ListDir(w.dir, false)
		for _, f := range files {
			copyFile(w.t, filepath.Join(w.dir, f.Name), filepath.Join(aside, f.Name))
		}
		path, err := collector.Append(aside, w.day(ixp, date, arg^0x5a), func(string, ...any) {})
		if err != nil {
			w.t.Fatal(err)
		}
		copyFile(w.t, path, filepath.Join(w.dir, fmt.Sprintf("dup%d%s", w.made, filepath.Ext(path))))
		return fmt.Sprintf("crawl %s 2021-10-%02d again", ixp, date)
	case 3: // rename a file, half the time to another day's name
		from := w.file(arg)
		if from == "" {
			return "nothing to rename"
		}
		to := fmt.Sprintf("renamed%d%s", w.made, filepath.Ext(from))
		if arg&2 != 0 {
			to = fmt.Sprintf("%s-2021-10-%02d%s", ixp, newest+1+int(arg>>2)%3, filepath.Ext(from))
		}
		if err := os.Rename(from, filepath.Join(w.dir, to)); err != nil {
			w.t.Fatal(err)
		}
		w.made++
		return "rename " + filepath.Base(from) + " " + to
	case 4: // a delta dated before the .bin it extends
		path := w.file(arg)
		base, err := collector.LoadSnapshot(path)
		if path == "" || strings.HasSuffix(path, collector.DeltaExt) || err != nil || dayOf(base.Date) < 2 {
			return "no .bin to extend backwards"
		}
		enc, err := collector.NewDeltaEncoder(base)
		if err != nil {
			w.t.Fatal(err)
		}
		buf, err := enc.Encode(w.day(base.IXP, 1+int(arg>>1)%(dayOf(base.Date)-1), arg^0xa5))
		if err != nil {
			w.t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(w.dir, fmt.Sprintf("early%d.delta", w.made)), buf, 0o644); err != nil {
			w.t.Fatal(err)
		}
		return "early delta on " + filepath.Base(path)
	case 5: // cut a file short
		path := w.file(arg)
		if path == "" {
			return "nothing to cut"
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			w.t.Fatal(err)
		}
		if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
			w.t.Fatal(err)
		}
		return "cut " + filepath.Base(path)
	default: // lose a file, a base perhaps
		path := w.file(arg)
		if path == "" {
			return "nothing to remove"
		}
		if err := os.Remove(path); err != nil {
			w.t.Fatal(err)
		}
		return "remove " + filepath.Base(path)
	}
}

// checkAppended holds a load after Append(d) to the collector's
// promise: d serves its date — as the IXP's newest day when it is dated
// after every other — and every other day served before is served as it
// was.
func (w *planWorld) checkAppended(before []analysis.DayCounts, d *collector.Snapshot) {
	w.t.Helper()
	want := slices.DeleteFunc(slices.Clone(before), func(c analysis.DayCounts) bool { return c.Date == d.Date })
	k, _ := slices.BinarySearchFunc(want, d.Date, func(c analysis.DayCounts, date string) int { return strings.Compare(c.Date, date) })
	want = slices.Insert(want, k, analysis.CountDay(d))
	lab, rep := w.load(false)
	after := lab.Series[d.IXP]
	if ix := lab.Indexes[d.IXP]; ix == nil || ix.Snapshot().Date != want[len(want)-1].Date || !slices.Equal(after, want) {
		w.t.Fatalf("after appending %s %s: serves %v, want %v; skipped %v", d.IXP, d.Date, after, want, rep.Skipped)
	}
}

// checkReference holds the production fold to the Materialize
// reference: the same days, digest and skips.
func (w *planWorld) checkReference(trail []string) {
	w.t.Helper()
	lab, rep := w.load(false)
	ref, refRep := w.load(true)
	if !reflect.DeepEqual(lab.Series, ref.Series) || lab.Digest != ref.Digest ||
		!slices.EqualFunc(rep.Skipped, refRep.Skipped, func(a, b Skipped) bool { return a.Error() == b.Error() }) {
		w.t.Fatalf("after %s: the reference serves %v, skipping %v; the load serves %v, skipping %v",
			strings.Join(trail, "; "), ref.Series, refRep.Skipped, lab.Series, rep.Skipped)
	}
}

// FuzzDayPlan is the plan's oracle. Each input byte pair is one step
// over a directory of two IXPs: a day collected after the newest, or
// again at or before it (a served day replaced, or a missed one
// back-filled), a served day crawled again on its base and kept under
// another name, a
// file renamed (to another day's name too), a delta dated before the
// .bin it extends, a file cut short, a file lost. After every collected
// day the day serves its date and every other day served before serves
// as it did; after every step the production fold and the
// Materialize reference serve the same days, digest and skips.
func FuzzDayPlan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 1, 3, 2, 2, 0, 4, 2, 5, 0, 6, 6, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 4, 4, 0, 4, 2, 0, 6, 3, 1, 3, 7, 0, 2, 0, 8})
	f.Add([]byte{0, 1, 0, 3, 0, 5, 5, 3, 0, 7, 6, 2, 0, 9, 2, 3, 0, 1, 4, 4})
	f.Add([]byte{1, 0, 1, 4, 2, 0, 2, 4, 0, 2, 3, 2, 0, 0, 5, 1, 6, 4, 1, 6})
	f.Add([]byte{0, 0, 4, 0, 0, 0, 2, 0, 2, 2, 0, 8, 6, 1, 0, 2, 3, 6, 0, 4})
	f.Add([]byte{0, 4, 4, 0, 0, 0, 2, 0, 0, 2, 4, 1, 3, 2, 0, 0, 6, 3, 0, 0})
	f.Add([]byte{0, 5, 0, 1, 4, 1, 4, 3, 0, 3, 3, 6, 0, 1, 2, 3, 5, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 2, 2, 2, 6, 1, 4, 0, 4, 1, 0, 2, 0, 1, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 2, 4, 0, 0, 1, 0, 1, 2, 3, 2, 1, 4, 1, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		w := &planWorld{t: t, dir: t.TempDir(), profiles: []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX"), *ixpgen.ProfileByName("LINX")}}
		var trail []string
		for k := 0; k+1 < len(script); k += 2 {
			trail = append(trail, w.step(script[k], script[k+1]))
			w.checkReference(trail)
		}
	})
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
