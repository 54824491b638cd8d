package main

import (
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
)

func testDay(ixp, date string, prefixes ...string) *collector.Snapshot {
	s := &collector.Snapshot{
		IXP: ixp, Date: date,
		Members: []collector.Member{{ASN: 64500, Name: "m", IPv4: true}},
	}
	for _, p := range prefixes {
		s.Routes = append(s.Routes, bgp.Route{
			Prefix:  netip.MustParsePrefix(p),
			NextHop: netip.MustParseAddr("192.0.2.1"),
			ASPath:  bgp.ASPath{64500},
		})
	}
	s.Normalize()
	return s
}

// TestCheckpointFlagIsHonoured: -checkpoint names where progress goes
// for every crawl, a strict one included; without it only -partial and
// -resume checkpoint, into -out.
func TestCheckpointFlagIsHonoured(t *testing.T) {
	def := filepath.Join("out", "checkpoint-2021-10-04.json")
	for _, tc := range []struct {
		flag      string
		defaulted bool
		want      string
	}{
		{flag: "ck.json", defaulted: false, want: "ck.json"},
		{flag: "ck.json", defaulted: true, want: "ck.json"},
		{defaulted: true, want: def},
		{defaulted: false, want: ""},
	} {
		if got := checkpointPath(tc.flag, "out", "2021-10-04", tc.defaulted); got != tc.want {
			t.Errorf("checkpointPath(%q, partial|resume=%v) = %q, want %q", tc.flag, tc.defaulted, got, tc.want)
		}
	}
}

// TestWritersStayInsideOut: the IXP name in a snapshot is whatever the
// looking glass answered. Whatever it is, every writer puts its file
// directly inside -out, and a chain's deltas are spelled like its base.
func TestWritersStayInsideOut(t *testing.T) {
	for _, ixp := range []string{"../../x", "A B", "a/b", ".."} {
		// Nested, so a name that escapes lands in the test's own tree.
		root := t.TempDir()
		dir := filepath.Join(root, "a", "b", "out")
		base, err := saveDelta(dir, testDay(ixp, "2021-10-04", "203.0.113.0/24"))
		if err != nil {
			t.Fatalf("%q: base: %v", ixp, err)
		}
		delta, err := saveDelta(dir, testDay(ixp, "2021-10-05", "203.0.113.0/24", "198.51.100.0/24"))
		if err != nil {
			t.Fatalf("%q: delta: %v", ixp, err)
		}
		export, err := saveMRT(dir, testDay(ixp, "2021-10-05", "203.0.113.0/24"))
		if err != nil {
			t.Fatalf("%q: mrt: %v", ixp, err)
		}
		stem := strings.TrimSuffix(filepath.Base(base), "-2021-10-04.bin")
		for _, c := range []struct{ path, want string }{
			{base, stem + "-2021-10-04.bin"},
			{delta, stem + "-2021-10-05.delta"},
			{export, stem + "-2021-10-05.mrt"},
		} {
			if filepath.Dir(c.path) != dir || filepath.Base(c.path) != c.want {
				t.Errorf("%q: wrote %s, want %s", ixp, c.path, filepath.Join(dir, c.want))
			}
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && filepath.Dir(path) != dir {
				t.Errorf("%q: file outside -out: %s", ixp, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestChainTip pins which files make an IXP's chain and which of them
// are read in full: the oldest base of the IXP plus its deltas. A later
// full file of the same IXP is a standalone day and another IXP's base
// is not this chain's business — only their headers are read, so a
// route block that does not decode does not matter.
func TestChainTip(t *testing.T) {
	dir := t.TempDir()
	day0 := testDay("DE-CIX", "2021-10-04", "203.0.113.0/24")
	day1 := testDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24")
	for _, day := range []*collector.Snapshot{day0, day1} {
		if _, err := saveDelta(dir, day); err != nil {
			t.Fatal(err)
		}
	}
	// Header intact, route block cut short.
	headerOnly := func(s *collector.Snapshot) {
		t.Helper()
		path, err := collector.SaveSnapshot(dir, s, collector.CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, whole[:len(whole)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := collector.LoadSnapshot(path); err == nil {
			t.Fatalf("%s still materialises", path)
		}
	}
	headerOnly(testDay("DE-CIX", "2021-10-09", "203.0.113.0/24", "192.0.2.0/24"))
	headerOnly(testDay("LINX", "2021-10-01", "203.0.113.0/24", "192.0.2.0/24"))

	app, tip, err := chainTip(dir, "DE-CIX")
	if err != nil {
		t.Fatal(err)
	}
	if app == nil || tip != day1.Date || app.Digest() != collector.SnapshotDigest(day1) {
		t.Errorf("chain tip = %q (applier %v), want the chain from the oldest base standing at %s", tip, app != nil, day1.Date)
	}
	if app, _, err := chainTip(dir, "AMS-IX"); app != nil || err != nil {
		t.Errorf("no chain for AMS-IX: got applier %v, err %v", app != nil, err)
	}
}
