package collector

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ixplight/internal/bgp"
)

// -update-golden regenerates testdata/snapshot.bin from
// goldenSnapshot(). Never run it casually: a byte change there is a
// wire-format change and needs a binaryVersion bump.
var updateGolden = flag.Bool("update-golden", false, "rewrite the committed binary snapshot fixture")

// goldenSnapshot is the fixture frozen into testdata/snapshot.bin. Do
// not edit — the committed bytes pin the wire format, and this value
// pins the decoding of those bytes.
func goldenSnapshot() *Snapshot {
	s := &Snapshot{
		IXP:           "DE-CIX",
		Date:          "2021-10-04",
		FilteredCount: 7,
		Partial:       true,
		Members: []Member{
			{ASN: 64500, Name: "Alpha Networks", IPv4: true},
			{ASN: 64501, Name: "Beta Tränsit", IPv4: true, IPv6: true},
			{ASN: 64502, Name: "", IPv6: true},
		},
		MemberErrors: []MemberError{
			{ASN: 64502, Stage: StageRoutes, Err: "lg: status 500", Attempts: 3},
		},
		Routes: []bgp.Route{
			{
				Prefix:    netip.MustParsePrefix("203.0.113.0/24"),
				NextHop:   netip.MustParseAddr("192.0.2.1"),
				ASPath:    bgp.ASPath{64500, 174},
				Origin:    bgp.OriginIGP,
				LocalPref: 100,
				Communities: []bgp.Community{
					bgp.NewCommunity(0, 64501),
					bgp.NewCommunity(6695, 64501),
				},
			},
			{
				Prefix:    netip.MustParsePrefix("203.0.114.0/23"),
				NextHop:   netip.MustParseAddr("192.0.2.1"),
				ASPath:    bgp.ASPath{64500, 174},
				Origin:    bgp.OriginIncomplete,
				MED:       50,
				LocalPref: 100,
				Communities: []bgp.Community{
					bgp.NewCommunity(0, 64501),
					bgp.NewCommunity(6695, 64501),
				},
				ExtCommunities: []bgp.ExtendedCommunity{
					bgp.NewTwoOctetASExtended(bgp.ExtSubTypePrependAction, 6695, 64501),
				},
				LargeCommunities: []bgp.LargeCommunity{
					{Global: 4200000000, Local1: 1, Local2: 4200000001},
				},
			},
			{
				// Same attributes as route 0 except the prefix: the
				// path and community sets intern to shared entries.
				Prefix:    netip.MustParsePrefix("198.51.100.0/24"),
				NextHop:   netip.MustParseAddr("192.0.2.1"),
				ASPath:    bgp.ASPath{64500, 174},
				Origin:    bgp.OriginIGP,
				LocalPref: 100,
				Communities: []bgp.Community{
					bgp.NewCommunity(0, 64501),
					bgp.NewCommunity(6695, 64501),
				},
			},
			{
				Prefix:      netip.MustParsePrefix("2001:db8:100::/48"),
				NextHop:     netip.MustParseAddr("2001:db8::1"),
				ASPath:      bgp.ASPath{64501},
				Origin:      bgp.OriginEGP,
				LocalPref:   200,
				Communities: []bgp.Community{}, // empty, not nil: the slice headers must tell them apart
			},
			{
				// 4-in-6 mapped next hop and single-element path.
				Prefix:  netip.MustParsePrefix("2001:db8:200::/48"),
				NextHop: netip.MustParseAddr("::ffff:192.0.2.7"),
				ASPath:  bgp.ASPath{64502},
			},
		},
	}
	s.Normalize()
	return s
}

const goldenPath = "testdata/snapshot.bin"

// decodeBinarySnapshot decodes a complete CodecBinary snapshot through
// the one reader.
func decodeBinarySnapshot(data []byte) (*Snapshot, error) {
	sr, err := NewSnapshotReaderBytes(data)
	if err != nil {
		return nil, err
	}
	return sr.Snapshot()
}

// TestBinaryGoldenFixture pins the wire format: the committed fixture
// must decode to exactly goldenSnapshot(), and re-encoding that value
// must reproduce the committed bytes. Any accidental format drift
// fails here loudly; a deliberate change needs a binaryVersion bump
// and -update-golden.
func TestBinaryGoldenFixture(t *testing.T) {
	want := goldenSnapshot()
	encoded := appendBinarySnapshot(nil, want)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(encoded))
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update-golden to create): %v", err)
	}
	got, err := decodeBinarySnapshot(data)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("golden fixture decodes differently:\n want %+v\n got  %+v", want, got)
	}
	if !bytes.Equal(encoded, data) {
		t.Errorf("encoder output drifted from committed fixture (%d vs %d bytes): wire-format change without a binaryVersion bump?", len(encoded), len(data))
	}
}

// TestBinaryVersionCheck ensures a future-versioned file is rejected
// with a version error rather than misparsed.
func TestBinaryVersionCheck(t *testing.T) {
	data := append([]byte(nil), appendBinarySnapshot(nil, goldenSnapshot())...)
	data[len(binaryMagic)] = binaryVersion + 1 // version varint is one byte for small versions
	if _, err := decodeBinarySnapshot(data); err == nil {
		t.Fatal("future version accepted")
	} else if want := fmt.Sprintf("version %d", binaryVersion+1); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the offending version", err)
	}
	// The version lives before the header section, so opening a reader
	// already rejects it.
	if _, err := NewSnapshotReaderBytes(data); err == nil {
		t.Fatal("reader opened a future version")
	}
}

// TestBinaryRoundTripEdgeCases exercises shapes the paper pipeline
// produces rarely but legally.
func TestBinaryRoundTripEdgeCases(t *testing.T) {
	cases := map[string]*Snapshot{
		"zero":         {},
		"empty-slices": {Members: []Member{}, MemberErrors: []MemberError{}, Routes: []bgp.Route{}},
		"golden":       goldenSnapshot(),
		"no-routes": {
			IXP: "LINX", Date: "2021-12-26",
			Members: []Member{{ASN: 1, Name: "x", IPv4: true}},
		},
		"invalid-route-fields": {
			IXP: "AMS-IX", Date: "2021-10-05",
			Routes: []bgp.Route{
				{}, // zero route: invalid prefix, invalid next hop, nil path
				{Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASPath: bgp.ASPath{}},
			},
		},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
				t.Fatal(err)
			}
			got, err := decodeBinarySnapshot(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, got) {
				t.Errorf("round trip mismatch:\n in  %+v\n out %+v", s, got)
			}
		})
	}
}

// TestBinaryDecodeTruncated ensures every prefix of a valid encoding
// fails cleanly instead of panicking or succeeding.
func TestBinaryDecodeTruncated(t *testing.T) {
	data := appendBinarySnapshot(nil, goldenSnapshot())
	for n := 0; n < len(data); n++ {
		if _, err := decodeBinarySnapshot(data[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// TestCrossCodecEquivalence holds the binary codec to an independent
// oracle: encoding/json over the Snapshot struct's own tags, the
// reflection round trip the removed JSON codecs were.
func TestCrossCodecEquivalence(t *testing.T) {
	s := sampleSnapshot()
	s.Partial = true
	s.MemberErrors = []MemberError{{ASN: 300, Stage: StageSkipped, Err: "budget", Attempts: 1}}
	s.Normalize()
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON Snapshot
	if err := json.Unmarshal(js, &viaJSON); err != nil {
		t.Fatal(err)
	}
	viaBinary, err := decodeBinarySnapshot(appendBinarySnapshot(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&viaJSON, viaBinary) {
		t.Errorf("binary decodes differently from json:\n json   %+v\n binary %+v", &viaJSON, viaBinary)
	}
}

// TestSnapshotReaderStreams pins the reader's contract on a file:
// Header() without the route block, routes in file order.
func TestSnapshotReaderStreams(t *testing.T) {
	s := goldenSnapshot()
	dir := t.TempDir()
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
	if h.Routes != nil {
		t.Error("header carries routes")
	}
	if h.IXP != s.IXP || h.Date != s.Date || !h.Partial ||
		!reflect.DeepEqual(h.Members, s.Members) ||
		!reflect.DeepEqual(h.MemberErrors, s.MemberErrors) ||
		h.FilteredCount != s.FilteredCount {
		t.Errorf("header mismatch: %+v", h)
	}
	got, err := sr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Routes, s.Routes) {
		t.Errorf("routes mismatch:\n want %+v\n got  %+v", s.Routes, got.Routes)
	}
	if sr.Header().Routes != nil {
		t.Error("Snapshot() put routes on the shared header")
	}
}

// TestSnapshotOutlivesReader pins what LoadSnapshot depends on: a
// materialised snapshot aliases nothing of the encoded bytes. After
// Close the file is unmapped (a stale alias faults), and scribbling over
// a caller's buffer must not reach a snapshot decoded from it.
func TestSnapshotOutlivesReader(t *testing.T) {
	want := goldenSnapshot()
	path, err := SaveSnapshot(t.TempDir(), want, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSnapshotAt(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("snapshot read after Close differs:\n want %+v\n got  %+v", want, got)
	}

	data := appendBinarySnapshot(nil, want)
	br, err := NewSnapshotReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = br.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("snapshot aliases the bytes it was decoded from")
	}
}

// TestCodecAutoDetect pins what makes a file a snapshot: the binary
// magic and nothing else. A snapshot under a meaningless name loads; a
// file of a removed codec, whatever it is called, is refused with a
// message that says what happened to its codec.
func TestCodecAutoDetect(t *testing.T) {
	s := sampleSnapshot()
	dir := t.TempDir()
	t.Run("binary", func(t *testing.T) {
		path, err := SaveSnapshot(dir, s, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		disguised := filepath.Join(dir, "disguised.json")
		if err := os.Rename(path, disguised); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSnapshot(disguised)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("decode by magic mismatch")
		}
	})

	gz := func(b []byte) []byte {
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		zw.Write(b)
		zw.Close()
		return zipped.Bytes()
	}
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	gobLike := []byte{0x3d, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 'S', 'n', 'a', 'p', 's', 'h', 'o', 't'}
	for _, c := range []struct {
		name, ext string
		content   []byte
	}{
		{"json", ".json", js},
		{"json+gzip", ".json.gz", gz(js)},
		{"gob", ".gob", gobLike},
		{"gob+gzip", ".gob.gz", gz(gobLike)},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, file := range []string{"old" + c.ext, "renamed-" + c.name + ".bin"} {
				path := filepath.Join(dir, file)
				if err := os.WriteFile(path, c.content, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := LoadSnapshot(path)
				if err == nil || !strings.Contains(err.Error(), "json, json.gz and gob snapshot codecs were removed") ||
					!strings.Contains(err.Error(), "regenerate") || !strings.Contains(err.Error(), "re-collect") {
					t.Errorf("%s: err = %v, want the removed codecs named and the way out", file, err)
				}
			}
		})
	}
}

// FuzzSnapshotCodecBinary is the round-trip fuzzer: any input that
// decodes must re-encode deterministically to a form that decodes to
// the same snapshot, rows rebuilt from the column walk by the test's
// own resolver must equal the materialised routes, and structured
// inputs derived from the fuzz data must survive encode→decode exactly.
func FuzzSnapshotCodecBinary(f *testing.F) {
	f.Add(appendBinarySnapshot(nil, goldenSnapshot()))
	f.Add(appendBinarySnapshot(nil, sampleSnapshot()))
	f.Add(appendBinarySnapshot(nil, &Snapshot{}))
	f.Add([]byte(binaryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes → decode → canonical re-encode.
		if s, err := decodeBinarySnapshot(data); err == nil {
			sr, err := NewSnapshotReaderBytes(data)
			if err != nil {
				t.Fatalf("reader refused an input that decodes: %v", err)
			}
			rb, err := sr.RouteBlock()
			if err != nil {
				t.Fatalf("RouteBlock refused an input that decodes: %v", err)
			}
			if rows := blockRoutes(t, rb); len(rows) != len(s.Routes) || len(rows) > 0 && !reflect.DeepEqual(rows, s.Routes) {
				t.Fatalf("rows rebuilt from Scan differ from Snapshot().Routes:\n scan     %+v\n snapshot %+v", rows, s.Routes)
			}
			enc := appendBinarySnapshot(nil, s)
			s2, err := decodeBinarySnapshot(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v", err)
			}
			if !reflect.DeepEqual(s, s2) {
				t.Fatalf("canonical round trip diverged:\n s  %+v\n s2 %+v", s, s2)
			}
			if enc2 := appendBinarySnapshot(nil, s2); !bytes.Equal(enc, enc2) {
				t.Fatalf("encoder is not deterministic")
			}
		}
		// Direction 2: structured snapshot derived from the data →
		// encode → decode → DeepEqual.
		s := snapshotFromFuzzBytes(data)
		enc := appendBinarySnapshot(nil, s)
		got, err := decodeBinarySnapshot(enc)
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("structured round trip mismatch:\n in  %+v\n out %+v", s, got)
		}
	})
}

// snapshotFromFuzzBytes deterministically builds a snapshot from raw
// fuzz bytes, covering both families, all three community flavours,
// nil-vs-empty slices and invalid routes.
func snapshotFromFuzzBytes(data []byte) *Snapshot {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	u32 := func() uint32 {
		return uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24
	}
	s := &Snapshot{
		IXP:           string([]byte{next(), next()}),
		Date:          "2021-10-04",
		FilteredCount: int(int8(next())),
		Partial:       next()&1 == 1,
	}
	for i := byte(0); i < next()%4; i++ {
		s.Members = append(s.Members, Member{
			ASN: u32(), Name: string([]byte{next()}),
			IPv4: next()&1 == 1, IPv6: next()&1 == 1,
		})
	}
	for i := byte(0); i < next()%3; i++ {
		s.MemberErrors = append(s.MemberErrors, MemberError{
			ASN: u32(), Stage: StageRoutes, Err: string([]byte{next()}), Attempts: int(next()),
		})
	}
	nRoutes := int(next() % 8)
	for i := 0; i < nRoutes; i++ {
		var r bgp.Route
		kind := next() % 4
		switch kind {
		case 0: // valid v4
			a := netip.AddrFrom4([4]byte{next(), next(), next(), next()})
			r.Prefix = netip.PrefixFrom(a, int(next())%33)
			r.NextHop = netip.AddrFrom4([4]byte{10, next(), next(), next()})
		case 1: // valid v6
			var a16 [16]byte
			for j := range a16 {
				a16[j] = next()
			}
			r.Prefix = netip.PrefixFrom(netip.AddrFrom16(a16), int(next())%129)
			a16[0] = 0xfd
			r.NextHop = netip.AddrFrom16(a16)
		case 2: // invalid prefix, zero next hop
		case 3: // 4-in-6 next hop
			r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{next(), next(), 0, 0}), 16)
			r.NextHop = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: next(), 15: 1})
		}
		for j := byte(0); j < next()%4; j++ {
			r.ASPath = append(r.ASPath, u32())
		}
		if next()&1 == 1 {
			r.Communities = []bgp.Community{}
		}
		for j := byte(0); j < next()%4; j++ {
			r.Communities = append(r.Communities, bgp.Community(u32()))
		}
		for j := byte(0); j < next()%3; j++ {
			var e bgp.ExtendedCommunity
			for k := range e {
				e[k] = next()
			}
			r.ExtCommunities = append(r.ExtCommunities, e)
		}
		for j := byte(0); j < next()%3; j++ {
			r.LargeCommunities = append(r.LargeCommunities, bgp.LargeCommunity{
				Global: u32(), Local1: u32(), Local2: u32(),
			})
		}
		r.Origin = bgp.Origin(next() % 3)
		r.MED = u32()
		r.LocalPref = u32()
		s.Routes = append(s.Routes, r)
	}
	return s
}
