package bgp

import (
	"encoding/binary"
	"testing"
)

func TestRIBAttributesRoundTripVariants(t *testing.T) {
	routes := []Route{
		{ // v4 with every optional attribute
			Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1"),
			ASPath: ASPath{64512, 64513}, Origin: OriginEGP,
			MED: 7, LocalPref: 200,
			Communities:      []Community{NewCommunity(0, 1), NewCommunity(2, 3)},
			ExtCommunities:   []ExtendedCommunity{NewTwoOctetASExtended(6, 64512, 9)},
			LargeCommunities: []LargeCommunity{{Global: 1, Local1: 2, Local2: 3}},
		},
		{ // v6 via abbreviated MP_REACH
			Prefix: mustPrefix("2001:db8::/32"), NextHop: mustAddr("2001:db8::9"),
			ASPath: ASPath{64512}, Origin: OriginIGP,
		},
		{ // empty AS path (zero-segment attribute)
			Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1"),
		},
	}
	for i, in := range routes {
		attrs, err := MarshalRIBAttributes(in)
		if err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		out := Route{Prefix: in.Prefix}
		if err := UnmarshalRIBAttributes(attrs, &out); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		if out.NextHop != in.NextHop || out.Origin != in.Origin ||
			out.MED != in.MED || out.LocalPref != in.LocalPref {
			t.Errorf("route %d: scalar attrs lost: %+v", i, out)
		}
		if len(out.Communities) != len(in.Communities) ||
			len(out.ExtCommunities) != len(in.ExtCommunities) ||
			len(out.LargeCommunities) != len(in.LargeCommunities) {
			t.Errorf("route %d: community lists lost", i)
		}
		if out.ASPath.String() != in.ASPath.String() {
			t.Errorf("route %d: path %q vs %q", i, out.ASPath, in.ASPath)
		}
	}
}

func TestRIBAttributesErrors(t *testing.T) {
	long := Route{
		Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1"),
		ASPath: make(ASPath, 256),
	}
	if _, err := MarshalRIBAttributes(long); err == nil {
		t.Error("256-hop path accepted")
	}
	cases := [][]byte{
		{0x40},                    // truncated header
		{0x40, 1, 2, 0},           // payload shorter than declared
		{0x40, 1, 2, 0, 0},        // ORIGIN with length 2
		{0x40, 3, 2, 1, 2},        // NEXT_HOP with length 2
		{0x80, 4, 2, 1, 2},        // MED with length 2
		{0x40, 5, 2, 1, 2},        // LOCAL_PREF with length 2
		{0xC0, 8, 3, 1, 2, 3},     // COMMUNITIES not multiple of 4
		{0xC0, 16, 4, 1, 2, 3, 4}, // EXT not multiple of 8
		{0xC0, 32, 4, 1, 2, 3, 4}, // LARGE not multiple of 12
		{0x80, 14, 2, 4, 0},       // abbreviated MP_REACH length mismatch
		{0x80, 14, 3, 2, 0, 0},    // MP_REACH nexthop length 2
		{0x40, 99, 1, 0},          // unknown well-known attribute
		{0x40, 2, 2, 1, 0},        // AS_PATH with an AS_SET segment
		{0x40, 2, 3, 2, 1, 0},     // AS_PATH segment shorter than its count
	}
	for i, attrs := range cases {
		r := Route{Prefix: mustPrefix("198.51.100.0/24")}
		if err := UnmarshalRIBAttributes(attrs, &r); err == nil {
			t.Errorf("case %d: malformed attrs accepted", i)
		}
	}
	// Unknown *optional* attributes are tolerated.
	r := Route{Prefix: mustPrefix("198.51.100.0/24")}
	if err := UnmarshalRIBAttributes([]byte{0x80, 99, 1, 0}, &r); err != nil {
		t.Errorf("unknown optional attribute rejected: %v", err)
	}
}

// TestRIBAttributesRejectOverlongAttribute holds the two-octet
// attribute length to its range: a community list one value past it
// is an error, never a length silently taken modulo 65,536, and the
// largest list that fits round-trips.
func TestRIBAttributesRejectOverlongAttribute(t *testing.T) {
	base := Route{Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1"), ASPath: ASPath{64512}}
	for _, c := range []struct {
		name string
		fits int // largest list whose attribute payload is <= 65,535 bytes
		with func(r *Route, n int)
	}{
		{"standard", 16383, func(r *Route, n int) { r.Communities = make([]Community, n) }},
		{"extended", 8191, func(r *Route, n int) { r.ExtCommunities = make([]ExtendedCommunity, n) }},
		{"large", 5461, func(r *Route, n int) { r.LargeCommunities = make([]LargeCommunity, n) }},
	} {
		r := base
		c.with(&r, c.fits+1)
		if _, err := MarshalRIBAttributes(r); err == nil {
			t.Errorf("%s: %d communities encoded with a truncated length", c.name, c.fits+1)
		}
		r = base
		c.with(&r, c.fits)
		attrs, err := MarshalRIBAttributes(r)
		if err != nil {
			t.Fatalf("%s: %d communities: %v", c.name, c.fits, err)
		}
		out := Route{Prefix: r.Prefix}
		if err := UnmarshalRIBAttributes(attrs, &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := out.CommunityCount(); got != c.fits {
			t.Errorf("%s: decoded %d communities, want %d", c.name, got, c.fits)
		}
	}
}

// truncatedCommunities is the block an encoder that wrote the low 16
// bits of a 16,384-community payload length produced: a COMMUNITIES
// attribute declaring 0 bytes, followed by 65,536 bytes the parser
// must read as further attributes.
func truncatedCommunities() []byte {
	attrs, _ := MarshalRIBAttributes(Route{
		Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1"), ASPath: ASPath{64512},
	})
	attrs = append(attrs, flagOptional|flagTransitive|flagExtLen, attrCommunities, 0, 0)
	for i := 0; i < 16384; i++ {
		attrs = binary.BigEndian.AppendUint32(attrs, uint32(NewCommunity(0, uint16(i))))
	}
	return attrs
}

// FuzzRIBAttributes drives the MRT attribute parser.
func FuzzRIBAttributes(f *testing.F) {
	attrs, _ := MarshalRIBAttributes(Route{
		Prefix:      mustPrefix("198.51.100.0/24"),
		NextHop:     mustAddr("10.0.0.1"),
		ASPath:      ASPath{64512},
		Communities: []Community{NewCommunity(0, 15169)},
	})
	f.Add(attrs)
	f.Add(truncatedCommunities())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := Route{Prefix: mustPrefix("198.51.100.0/24")}
		_ = UnmarshalRIBAttributes(data, &r)
	})
}
