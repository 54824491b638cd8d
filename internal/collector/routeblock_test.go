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
			NextHop:          b.NextHops()[ref.NextHop],
			ASPath:           b.ASPaths()[ref.Path],
			Origin:           ref.Origin,
			MED:              ref.MED,
			LocalPref:        ref.LocalPref,
			Communities:      b.CommunitySets()[ref.Communities],
			ExtCommunities:   b.ExtCommunitySets()[ref.ExtCommunities],
			LargeCommunities: b.LargeCommunitySets()[ref.LargeCommunities],
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
