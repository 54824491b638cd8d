package mrt

import (
	"bytes"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/netutil"
)

func sampleSnapshot(t *testing.T) *collector.Snapshot {
	t.Helper()
	scheme := dictionary.ProfileByName("DE-CIX")
	s := &collector.Snapshot{
		IXP:  "DE-CIX",
		Date: "2021-10-04",
		Members: []collector.Member{
			{ASN: 100, Name: "AS100", IPv4: true, IPv6: true},
			{ASN: 4260000077, Name: "AS4260000077", IPv4: true},
		},
		Routes: []bgp.Route{
			{
				Prefix:  netutil.SyntheticV4Prefix(0),
				NextHop: netutil.PeerAddrV4(1),
				ASPath:  bgp.ASPath{100, 200, 300},
				Origin:  bgp.OriginIGP,
				MED:     50,
				Communities: []bgp.Community{
					scheme.DoNotAnnounce(15169), bgp.BlackholeWellKnown,
				},
				ExtCommunities:   []bgp.ExtendedCommunity{scheme.ExtInfo(3)},
				LargeCommunities: []bgp.LargeCommunity{{Global: 6695, Local1: 100, Local2: 0}},
			},
			{
				Prefix:  netutil.SyntheticV6Prefix(0),
				NextHop: netutil.PeerAddrV6(1),
				ASPath:  bgp.ASPath{100},
				Origin:  bgp.OriginIncomplete,
			},
			{
				Prefix:  netutil.SyntheticV4Prefix(1),
				NextHop: netutil.PeerAddrV4(2),
				ASPath:  bgp.ASPath{4260000077},
			},
		},
	}
	s.Normalize()
	return s
}

func TestRIBRoundTrip(t *testing.T) {
	in := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := WriteRIB(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.IXP != in.IXP || out.Date != in.Date {
		t.Errorf("identity = %s/%s", out.IXP, out.Date)
	}
	if len(out.Routes) != len(in.Routes) {
		t.Fatalf("routes = %d, want %d", len(out.Routes), len(in.Routes))
	}
	for i := range in.Routes {
		a, b := in.Routes[i], out.Routes[i]
		if a.Prefix != b.Prefix || a.NextHop != b.NextHop || a.String() != b.String() {
			t.Errorf("route %d mismatch:\n in  %s\n out %s", i, a, b)
		}
		if a.MED != b.MED || a.Origin != b.Origin {
			t.Errorf("route %d attrs: med %d/%d origin %v/%v", i, a.MED, b.MED, a.Origin, b.Origin)
		}
		if len(a.ExtCommunities) != len(b.ExtCommunities) || len(a.LargeCommunities) != len(b.LargeCommunities) {
			t.Errorf("route %d ext/large lost", i)
		}
	}
	// 4-byte ASN must survive.
	found := false
	for _, m := range out.Members {
		if m.ASN == 4260000077 {
			found = true
		}
	}
	if !found {
		t.Error("4-octet peer ASN lost")
	}
}

// TestGeneratedWorkloadRoundTrip pushes a full synthetic IXP through
// the MRT codec and checks the analysis-relevant aggregates survive.
func TestGeneratedWorkloadRoundTrip(t *testing.T) {
	p := ixpgen.ProfileByName("AMS-IX")
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 4, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	in := w.Snapshot("2021-10-04")
	var buf bytes.Buffer
	if err := WriteRIB(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Routes) != len(in.Routes) {
		t.Fatalf("routes = %d, want %d", len(out.Routes), len(in.Routes))
	}
	inComm, outComm := 0, 0
	for i := range in.Routes {
		inComm += in.Routes[i].CommunityCount()
		outComm += out.Routes[i].CommunityCount()
	}
	if inComm != outComm {
		t.Errorf("community instances = %d, want %d", outComm, inComm)
	}
	if len(out.Members) != len(in.Members) {
		t.Errorf("members = %d, want %d", len(out.Members), len(in.Members))
	}
}

func TestReadRejectsCorruptArchives(t *testing.T) {
	good := &bytes.Buffer{}
	if err := WriteRIB(good, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()

	t.Run("empty", func(t *testing.T) {
		if _, err := ReadRIB(bytes.NewReader(nil)); err == nil {
			t.Error("want error")
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadRIB(bytes.NewReader(raw[:6])); err == nil {
			t.Error("want error")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := ReadRIB(bytes.NewReader(raw[:20])); err == nil {
			t.Error("want error")
		}
	})
	t.Run("implausible length", func(t *testing.T) {
		bad := bytes.Clone(raw)
		bad[8], bad[9], bad[10], bad[11] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, err := ReadRIB(bytes.NewReader(bad)); err == nil {
			t.Error("want error")
		}
	})
	t.Run("rib before index", func(t *testing.T) {
		// Skip the peer index record.
		idxLen := 12 + int(uint32(raw[8])<<24|uint32(raw[9])<<16|uint32(raw[10])<<8|uint32(raw[11]))
		if _, err := ReadRIB(bytes.NewReader(raw[idxLen:])); err == nil {
			t.Error("want error")
		}
	})
}

func TestWriteRejectsUnknownAnnouncer(t *testing.T) {
	s := sampleSnapshot(t)
	s.Routes = append(s.Routes, bgp.Route{
		Prefix:  netutil.SyntheticV4Prefix(9),
		NextHop: netutil.PeerAddrV4(9),
		ASPath:  bgp.ASPath{999999},
	})
	var buf bytes.Buffer
	if err := WriteRIB(&buf, s); err == nil {
		t.Error("route from non-member accepted")
	}
}

// TestWriteRejectsOverlongLengths holds every two-octet length the
// archive writes to its range: a route with 16,384 communities, one
// whose attributes fit singly but not together, and a 65,536-member
// peer index are errors, not lengths taken modulo 65,536.
func TestWriteRejectsOverlongLengths(t *testing.T) {
	tooMany := sampleSnapshot(t)
	tooMany.Routes[0].Communities = make([]bgp.Community, 16384)
	tooBig := sampleSnapshot(t)
	tooBig.Routes[0].Communities = make([]bgp.Community, 16383)
	tooBig.Routes[0].ExtCommunities = make([]bgp.ExtendedCommunity, 8191)
	crowded := sampleSnapshot(t)
	for asn := uint32(1); len(crowded.Members) <= 0xFFFF; asn++ {
		crowded.Members = append(crowded.Members, collector.Member{ASN: 5000000 + asn, IPv4: true})
	}
	for name, s := range map[string]*collector.Snapshot{
		"16,384 communities": tooMany, "attribute block": tooBig, "peer index": crowded,
	} {
		if err := WriteRIB(&bytes.Buffer{}, s); err == nil {
			t.Errorf("%s: written with a truncated length", name)
		}
	}
}

func TestWriteRejectsBadDate(t *testing.T) {
	s := sampleSnapshot(t)
	s.Date = "not-a-date"
	var buf bytes.Buffer
	if err := WriteRIB(&buf, s); err == nil {
		t.Error("bad date accepted")
	}
}

func TestReadToleratesForeignRecordTypes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRIB(&buf, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	// Prepend a BGP4MP (type 16) record, which must be skipped.
	foreign := []byte{0, 0, 0, 0, 0, 16, 0, 4, 0, 0, 0, 3, 1, 2, 3}
	full := append(foreign, buf.Bytes()...)
	out, err := ReadRIB(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Routes) != 3 {
		t.Errorf("routes = %d", len(out.Routes))
	}
}

// sampleSnapshotForFuzz is the test fixture without *testing.T, for
// the fuzz seed corpus.
func sampleSnapshotForFuzz() *collector.Snapshot {
	s := &collector.Snapshot{
		IXP:  "X",
		Date: "2021-10-04",
		Members: []collector.Member{
			{ASN: 100, IPv4: true},
		},
		Routes: []bgp.Route{{
			Prefix:  netutil.SyntheticV4Prefix(0),
			NextHop: netutil.PeerAddrV4(1),
			ASPath:  bgp.ASPath{100},
		}},
	}
	s.Normalize()
	return s
}

// BenchmarkMRTWriteRead measures dumping and re-parsing a snapshot as
// a RouteViews-style archive (AMS-IX at scale 0.02), run by hand:
//
//	go test -run '^$' -bench MRTWriteRead -benchmem ./internal/mrt
func BenchmarkMRTWriteRead(b *testing.B) {
	w, err := ixpgen.Generate(*ixpgen.ProfileByName("AMS-IX"), ixpgen.Options{Seed: 42, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	s := w.Snapshot("2021-10-04")
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteRIB(&buf, s); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := ReadRIB(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "bytes")
}
