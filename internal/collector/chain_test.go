package collector

import (
	"crypto/sha256"
	"net/netip"
	"os"
	"testing"

	"ixplight/internal/bgp"
)

// chainDay is one normalized day of ixp announcing the prefixes from
// one member.
func chainDay(ixp, date string, prefixes ...string) *Snapshot {
	s := &Snapshot{IXP: ixp, Date: date, Members: []Member{{ASN: 64500, Name: "m", IPv4: true}}}
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

// TestChainTip pins which day a run extends: the IXP's newest day whose
// file opens. Its chain is replayed from the base it links to by digest,
// whatever else the directory holds: a later full file whose
// route block does not decode is skipped, and another IXP's files are
// not this chain's business. A .bin newest day is extended straight
// from its file.
func TestChainTip(t *testing.T) {
	dir := t.TempDir()
	day0 := chainDay("DE-CIX", "2021-10-04", "203.0.113.0/24")
	day1 := chainDay("DE-CIX", "2021-10-05", "203.0.113.0/24", "198.51.100.0/24")
	var files [][]byte // day 0's base, day 1's delta
	for _, day := range []*Snapshot{day0, day1} {
		path, err := Append(dir, day, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	// Header intact, route block cut short.
	headerOnly := func(s *Snapshot) {
		t.Helper()
		path, err := SaveSnapshot(dir, s, CodecBinary)
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
		if _, err := LoadSnapshot(path); err == nil {
			t.Fatalf("%s still materialises", path)
		}
	}
	headerOnly(chainDay("DE-CIX", "2021-10-09", "203.0.113.0/24", "192.0.2.0/24"))
	headerOnly(chainDay("LINX", "2021-10-11", "203.0.113.0/24", "192.0.2.0/24"))

	chainTip := func(ixp string) *DeltaEncoder {
		t.Helper()
		cf, err := openChainFiles(dir, ixp, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		for {
			tip := cf.plan.Tip()
			if tip < 0 {
				return nil
			}
			app, _, err := cf.plan.Replay(nil, -1, tip, cf.snap, cf.reader)
			if err == nil {
				return app.Encoder()
			}
			if !cf.replan() {
				t.Fatal(err)
			}
		}
	}
	enc := chainTip("DE-CIX")
	if enc == nil || SnapshotDigest(enc.Base()) != SnapshotDigest(day1) {
		t.Fatalf("chain tip = %v, want the chain standing at %s", enc != nil, day1.Date)
	}
	// The chain links day 1's delta to the base file's sha256, and the
	// encoder stands at the delta's own: the sha256 of its bytes before
	// the seal.
	delta, err := NewDeltaReader(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if delta.BaseDigest() != sha256.Sum256(files[0]) || enc.BaseDigest() != sha256.Sum256(files[1][:len(files[1])-sha256.Size]) {
		t.Error("the chain tip's digest is not the hash chain over the base file and day 1's delta")
	}
	if enc := chainTip("AMS-IX"); enc != nil {
		t.Error("no chain for AMS-IX: got an encoder")
	}
	// A full file that decodes is the newest day: no replay.
	day2 := chainDay("DE-CIX", "2021-10-06", "203.0.113.0/24")
	if _, err := SaveSnapshot(dir, day2, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if enc := chainTip("DE-CIX"); enc == nil || enc.Base().Date != day2.Date || enc.BaseDigest() != SnapshotDigest(day2) {
		t.Fatalf("chain tip is not the full file of %s", day2.Date)
	}
}
