package collector

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/telemetry"
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
	// The streaming path must reject it the same way.
	if _, err := NewSnapshotReader(bytes.NewReader(data), "x.bin"); err == nil {
		t.Fatal("streaming reader accepted future version")
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
			got, err := ReadSnapshot(&buf, CodecBinary)
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

// TestCrossCodecEquivalence decodes the same fixture through all five
// codecs and requires identical in-memory snapshots — the guarantee
// that lets a dataset mix codecs freely.
func TestCrossCodecEquivalence(t *testing.T) {
	s := sampleSnapshot()
	s.Partial = true
	s.MemberErrors = []MemberError{{ASN: 300, Stage: StageSkipped, Err: "budget", Attempts: 1}}
	s.Normalize()
	decoded := make(map[Codec]*Snapshot)
	for _, codec := range Codecs() {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s, codec); err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		got, err := ReadSnapshot(&buf, codec)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		decoded[codec] = got
	}
	for _, codec := range Codecs() {
		if !reflect.DeepEqual(decoded[CodecJSON], decoded[codec]) {
			t.Errorf("%v decodes differently from json:\n json %+v\n %v %+v",
				codec, decoded[CodecJSON], codec, decoded[codec])
		}
	}
}

// TestSnapshotReaderStreams pins the streaming contract: Header()
// before the route block, routes in file order, single-shot column
// walk.
func TestSnapshotReaderStreams(t *testing.T) {
	s := goldenSnapshot()
	dir := t.TempDir()
	path, err := SaveSnapshot(dir, s, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Codec() != CodecBinary {
		t.Fatalf("codec = %v", sr.Codec())
	}
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
	var got []bgp.Route
	if err := sr.ForEachRoute(func(r bgp.Route) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s.Routes) {
		t.Errorf("streamed routes mismatch:\n want %+v\n got  %+v", s.Routes, got)
	}
	// The column walk is single-shot.
	if err := sr.ForEachRoute(func(bgp.Route) error { return nil }); err == nil {
		t.Error("second ForEachRoute succeeded")
	}
	if _, err := sr.Snapshot(); err == nil {
		t.Error("Snapshot() after ForEachRoute succeeded")
	}
}

// TestSnapshotReaderEagerCodecs drives the same interface over the
// reflection codecs (eager fallback) and checks ForEachRoute stops on
// a callback error.
func TestSnapshotReaderEagerCodecs(t *testing.T) {
	s := sampleSnapshot()
	dir := t.TempDir()
	for _, codec := range Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			path, err := SaveSnapshot(dir, s, codec)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			if sr.Codec() != codec {
				t.Fatalf("codec = %v, want %v", sr.Codec(), codec)
			}
			if h := sr.Header(); h.IXP != s.IXP || h.Routes != nil {
				t.Errorf("header = %+v", h)
			}
			n := 0
			stop := fmt.Errorf("stop")
			err = sr.ForEachRoute(func(bgp.Route) error {
				n++
				if n == 2 {
					return stop
				}
				return nil
			})
			if err != stop || n != 2 {
				t.Errorf("early stop: err=%v n=%d", err, n)
			}
		})
	}
}

// TestCodecAutoDetect renames each codec's file to a meaningless
// extension and checks LoadSnapshot still decodes it via magic bytes
// and content sniffing.
func TestCodecAutoDetect(t *testing.T) {
	s := sampleSnapshot()
	dir := t.TempDir()
	for _, codec := range Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			path, err := SaveSnapshot(dir, s, codec)
			if err != nil {
				t.Fatal(err)
			}
			disguised := filepath.Join(dir, "disguised-"+codec.String()+".dat")
			if err := os.Rename(path, disguised); err != nil {
				t.Fatal(err)
			}
			got, err := LoadSnapshot(disguised)
			if err != nil {
				t.Fatal(err)
			}
			want, err := func() (*Snapshot, error) {
				var buf bytes.Buffer
				if err := WriteSnapshot(&buf, s, codec); err != nil {
					return nil, err
				}
				return ReadSnapshot(&buf, codec)
			}()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("sniffed decode mismatch")
			}
		})
	}

	// The gob codec is gone. Its files are refused by name, whether
	// the name or only the content gives them away: a stream that is
	// neither binary nor JSON is not handed to some other decoder.
	gobLike := []byte{0x3d, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 'S', 'n', 'a', 'p', 's', 'h', 'o', 't'}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(gobLike)
	zw.Close()
	for name, content := range map[string][]byte{"gob": gobLike, "gob+gzip": zipped.Bytes()} {
		t.Run(name, func(t *testing.T) {
			ext := map[string]string{"gob": ".gob", "gob+gzip": ".gob.gz"}[name]
			for _, file := range []string{"old" + ext, "disguised-" + name + ".dat"} {
				path := filepath.Join(dir, file)
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "gob snapshot codec was removed") {
					t.Errorf("%s: err = %v, want the removed gob codec named", file, err)
				}
			}
		})
	}
}

// TestCodecTelemetry checks the decode instruments and the
// binary-codec intern hit counters flow into a registry.
func TestCodecTelemetry(t *testing.T) {
	reg := telemetry.New()
	SetTelemetry(reg)
	defer SetTelemetry(nil)

	s := goldenSnapshot()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), CodecBinary); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	out := dump.String()
	for _, want := range []string{
		`ixplight_codec_decode_bytes_total{codec="binary"}`,
		`ixplight_codec_decode_routes_total{codec="binary"} 5`,
		`ixplight_codec_intern_hits_total{table="aspath"} 2`,
		`ixplight_codec_intern_misses_total{table="aspath"} 3`,
		`ixplight_codec_intern_hits_total{table="nexthop"} 2`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// FuzzSnapshotCodecBinary is the round-trip fuzzer: any input that
// decodes must re-encode deterministically to a form that decodes to
// the same snapshot, and structured inputs derived from the fuzz data
// must survive encode→decode exactly.
func FuzzSnapshotCodecBinary(f *testing.F) {
	f.Add(appendBinarySnapshot(nil, goldenSnapshot()))
	f.Add(appendBinarySnapshot(nil, sampleSnapshot()))
	f.Add(appendBinarySnapshot(nil, &Snapshot{}))
	f.Add([]byte(binaryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes → decode → canonical re-encode.
		if s, err := decodeBinarySnapshot(data); err == nil {
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
