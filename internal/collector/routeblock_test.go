package collector

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ixplight/internal/bgp"
)

// encodeBinary returns s in CodecBinary form.
func encodeBinary(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// blockRoutes re-assembles []bgp.Route from a RouteBlock scan — the
// reference for column/row equivalence. It also pins that RouteRef.V6
// agrees with the assembled route's IsIPv6.
func blockRoutes(t *testing.T, b *RouteBlock) []bgp.Route {
	t.Helper()
	var out []bgp.Route
	err := b.Scan(func(ref *RouteRef) error {
		pr := breader{b: ref.PrefixBytes}
		addr, err := pr.addr()
		if err != nil {
			return err
		}
		bitsByte, err := pr.byte()
		if err != nil {
			return err
		}
		routeBits := int(bitsByte)
		if bitsByte == 0xFF {
			routeBits = -1
		}
		r := bgp.Route{
			Prefix:           netip.PrefixFrom(addr, routeBits),
			NextHop:          b.Tables().NextHops[ref.NextHop],
			ASPath:           b.Tables().ASPaths[ref.Path],
			Origin:           ref.Origin,
			MED:              ref.MED,
			LocalPref:        ref.LocalPref,
			Communities:      b.Tables().CommunitySets[ref.Communities],
			ExtCommunities:   b.Tables().ExtCommunitySets[ref.ExtCommunities],
			LargeCommunities: b.Tables().LargeCommunitySets[ref.LargeCommunities],
		}
		if ref.V6 != r.IsIPv6() {
			t.Errorf("row %d: ref.V6=%v but assembled route IsIPv6=%v (%s)", ref.Row, ref.V6, r.IsIPv6(), r.Prefix)
		}
		if ref.Row != len(out) {
			t.Errorf("ref.Row=%d, want %d", ref.Row, len(out))
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestRouteBlockMatchesRows pins what the one reader promises: it
// serves RouteBlock(), Snapshot() and Scan any number of times and in
// any order, rows re-assembled from the columns equal the materialized
// decode, and every pass gives the same result.
func TestRouteBlockMatchesRows(t *testing.T) {
	for _, s := range []*Snapshot{sampleSnapshot(), goldenSnapshot(), {IXP: "X", Date: "2021-10-04"}} {
		sr, err := NewSnapshotReaderBytes(encodeBinary(t, s))
		if err != nil {
			t.Fatal(err)
		}
		before, err := sr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, s) {
			t.Fatalf("Snapshot() = %+v, want %+v", before, s)
		}
		rb, err := sr.RouteBlock()
		if err != nil {
			t.Fatal(err)
		}
		if rb.NumRoutes() != len(s.Routes) {
			t.Fatalf("NumRoutes=%d, want %d", rb.NumRoutes(), len(s.Routes))
		}
		first := blockRoutes(t, rb)
		again := blockRoutes(t, rb)
		if !reflect.DeepEqual(first, again) {
			t.Error("second Scan diverged from the first")
		}
		for i := range s.Routes {
			if !reflect.DeepEqual(first[i], s.Routes[i]) {
				t.Errorf("row %d: column %+v != materialized %+v", i, first[i], s.Routes[i])
			}
		}
		// A callback error stops the walk there and comes back as is.
		stop, visited := errors.New("stop"), 0
		err = rb.Scan(func(*RouteRef) error {
			if visited++; visited == 2 {
				return stop
			}
			return nil
		})
		if want := min(2, len(s.Routes)); visited != want || (err != stop) != (want < 2) {
			t.Errorf("early stop: visited %d rows, err %v; want %d rows", visited, err, want)
		}
		after, err := sr.Snapshot()
		if err != nil {
			t.Fatalf("second Snapshot, after RouteBlock and the Scans: %v", err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Error("second Snapshot diverged from the first")
		}
	}
}

// TestOpenSnapshotAt exercises the mmap/read open path: header
// without route decode, column access, and full materialization equal
// to LoadSnapshot.
func TestOpenSnapshotAt(t *testing.T) {
	dir := t.TempDir()
	s := goldenSnapshot()
	path, err := SaveSnapshot(dir, s, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}

	sr, err := OpenSnapshotAt(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	h := sr.Header()
	if h.IXP != s.IXP || h.Date != s.Date || len(h.Members) != len(s.Members) || h.Routes != nil {
		t.Fatalf("header mismatch: %+v", h)
	}
	rb, err := sr.RouteBlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	got := blockRoutes(t, rb)
	if !reflect.DeepEqual(got, want.Routes) {
		t.Error("OpenSnapshotAt columns diverged from LoadSnapshot")
	}
	full, err := sr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, want) {
		t.Error("OpenSnapshotAt snapshot diverged from LoadSnapshot")
	}
	if sr.Digest() != SnapshotDigest(s) {
		t.Error("reader digest is not the snapshot's digest")
	}
}

// TestOpenSnapshotAtErrors pins open failures: missing file, and
// corrupt content detected at open.
func TestOpenSnapshotAtErrors(t *testing.T) {
	if _, err := OpenSnapshotAt(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Error("missing file must fail")
	}
	p := filepath.Join(t.TempDir(), "short.bin")
	if err := os.WriteFile(p, []byte("IX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotAt(p); err == nil {
		t.Error("truncated magic must fail")
	}
}

// TestDecodeTablesOneDecoder pins the one table decoder behind both
// file kinds: the same table bytes — built here from the key encoders
// the write side shares — decoded as a .bin block's tables and, with a
// base size in front of each, as a .delta's extensions give equal
// tables, nil and empty sets told apart; and a set overrunning its
// table's declared element total fails with the caller's own sentinel.
func TestDecodeTablesOneDecoder(t *testing.T) {
	want := Tables{
		NextHops:      []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1")},
		ASPaths:       []bgp.ASPath{{64500, 64501}, nil, {}},
		CommunitySets: [][]bgp.Community{nil, {}, {bgp.NewCommunity(0, 15169), bgp.BlackholeWellKnown}},
		ExtCommunitySets: [][]bgp.ExtendedCommunity{
			{bgp.NewTwoOctetASExtended(6, 6695, 1)}, nil,
		},
		LargeCommunitySets: [][]bgp.LargeCommunity{
			{{Global: 6695, Local1: 0, Local2: 263075}, {Global: 4294967295, Local1: 1, Local2: 2}},
		},
	}
	// Each table as it goes on the wire: entry count, element total
	// (not for next hops), then the entries' keys.
	var tabs [numTabs][]byte
	tabs[tabNH] = appendUvarint(nil, uint64(len(want.NextHops)))
	for _, nh := range want.NextHops {
		tabs[tabNH] = appendAddr(tabs[tabNH], nh)
	}
	tabs[tabPath] = appendUvarint(appendUvarint(nil, 3), 2)
	for _, p := range want.ASPaths {
		tabs[tabPath] = appendPathKey(tabs[tabPath], p)
	}
	tabs[tabComm] = appendUvarint(appendUvarint(nil, 3), 2)
	for _, cs := range want.CommunitySets {
		tabs[tabComm] = appendCommKey(tabs[tabComm], cs)
	}
	tabs[tabExt] = appendUvarint(appendUvarint(nil, 2), 1)
	for _, es := range want.ExtCommunitySets {
		tabs[tabExt] = appendExtKey(tabs[tabExt], es)
	}
	tabs[tabLarge] = appendUvarint(appendUvarint(nil, 1), 2)
	for _, ls := range want.LargeCommunitySets {
		tabs[tabLarge] = appendLargeKey(tabs[tabLarge], ls)
	}
	wantBase := [numTabs]int{7, 0, 300, 1, 99}
	var block, ext []byte
	for tab, body := range tabs {
		block = append(block, body...)
		ext = append(appendUvarint(ext, uint64(wantBase[tab])), body...)
	}

	asBlock, err := decodeTables(&breader{b: block}, nil, errBinaryTruncated)
	if err != nil {
		t.Fatalf("as a .bin block: %v", err)
	}
	var base [numTabs]int
	asExt, err := decodeTables(&breader{b: ext}, &base, errDeltaCorrupt)
	if err != nil {
		t.Fatalf("as a .delta extension: %v", err)
	}
	if !reflect.DeepEqual(asBlock, want) {
		t.Errorf(".bin block tables %+v, want %+v", asBlock, want)
	}
	if !reflect.DeepEqual(asExt, asBlock) {
		t.Errorf(".delta extension tables %+v != .bin block tables %+v", asExt, asBlock)
	}
	if base != wantBase {
		t.Errorf("base sizes %v, want %v", base, wantBase)
	}
	if asBlock.sizes() != [numTabs]int{2, 3, 3, 2, 1} {
		t.Errorf("sizes %v", asBlock.sizes())
	}

	// One AS path of one element in a table that declares none.
	overrun := appendUvarint(nil, 0) // no next hops
	overrun = appendUvarint(appendUvarint(overrun, 1), 0)
	overrun = appendPathKey(overrun, bgp.ASPath{64500})
	if _, err := decodeTables(&breader{b: overrun}, nil, errBinaryTruncated); err != errBinaryTruncated {
		t.Errorf("overrun as a .bin block: %v, want %v", err, errBinaryTruncated)
	}
	overrunExt := append(appendUvarint(nil, 0), overrun[:1]...)
	overrunExt = append(appendUvarint(overrunExt, 0), overrun[1:]...)
	if _, err := decodeTables(&breader{b: overrunExt}, &base, errDeltaCorrupt); err != errDeltaCorrupt {
		t.Errorf("overrun as a .delta extension: %v, want %v", err, errDeltaCorrupt)
	}
}
