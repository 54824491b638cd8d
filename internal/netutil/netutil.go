// Package netutil provides address-plane helpers shared by the route
// server and the workload generator: bogon prefix and ASN detection
// (the route-server import filters the paper's §3 describes) and
// deterministic prefix synthesis for the simulator.
package netutil

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// bogonV4 lists IPv4 space that must never appear in a routing table
// (RFC 1122, RFC 1918, RFC 3927, RFC 5737, RFC 6598, ...). Route
// servers reject announcements covered by any of these.
var bogonV4 = mustPrefixes(
	"0.0.0.0/8",
	"10.0.0.0/8",
	"100.64.0.0/10",
	"127.0.0.0/8",
	"169.254.0.0/16",
	"172.16.0.0/12",
	"192.0.0.0/24",
	"192.0.2.0/24",
	"192.168.0.0/16",
	"198.18.0.0/15",
	"198.51.100.0/24",
	"203.0.113.0/24",
	"224.0.0.0/4",
	"240.0.0.0/4",
)

// bogonV6 lists the equivalent IPv6 bogon space. 2001:db8::/32 is
// deliberately not included: this simulator numbers its synthetic
// Internet out of the documentation prefix, exactly so that nothing it
// generates can collide with real routable space.
var bogonV6 = mustPrefixes(
	"::/8",
	"100::/64",
	"2001::/33",
	"fc00::/7",
	"fe80::/10",
	"ff00::/8",
)

func mustPrefixes(ss ...string) []netip.Prefix {
	ps := make([]netip.Prefix, len(ss))
	for i, s := range ss {
		ps[i] = netip.MustParsePrefix(s)
	}
	return ps
}

// span is the inclusive range of a prefix's high 64 address bits, an
// IPv4 address sitting in the top 32. No bogon block is longer than a
// /64, so a prefix overlaps a block exactly when their spans intersect.
type span struct{ lo, hi uint64 }

var bogonSpansV4, bogonSpansV6 = spansOf(bogonV4), spansOf(bogonV6)

func spansOf(blocks []netip.Prefix) []span {
	out := make([]span, len(blocks))
	for i, b := range blocks {
		if b.Bits() > 64 {
			panic(fmt.Sprintf("netutil: bogon block %s is longer than /64", b))
		}
		out[i] = spanOf(b)
	}
	return out
}

func spanOf(p netip.Prefix) span {
	var x uint64
	if a := p.Addr(); a.Is4() {
		b := a.As4()
		x = uint64(binary.BigEndian.Uint32(b[:])) << 32
	} else {
		b := a.As16()
		x = binary.BigEndian.Uint64(b[:8])
	}
	if p.Bits() >= 64 {
		return span{x, x}
	}
	host := ^uint64(0) >> p.Bits()
	return span{x &^ host, x | host}
}

// IsBogonPrefix reports whether p falls inside, or covers part of,
// reserved address space. An IPv4-mapped IPv6 prefix is IPv6 and lies
// inside ::/8.
func IsBogonPrefix(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	table := bogonSpansV4
	if p.Addr().Is6() {
		table = bogonSpansV6
	}
	s := spanOf(p)
	for _, b := range table {
		if s.lo <= b.hi && b.lo <= s.hi {
			return true
		}
	}
	return false
}

// IsBogonASN reports whether asn is reserved (RFC 7607 zero,
// RFC 5398 documentation ranges, RFC 6996 private use, RFC 7300 last,
// or the 4-octet documentation/private ranges).
func IsBogonASN(asn uint32) bool {
	switch {
	case asn == 0:
		return true
	case asn == 23456: // AS_TRANS must never originate routes
		return true
	case asn >= 64496 && asn <= 64511: // documentation (RFC 5398)
		return true
	case asn >= 65536 && asn <= 65551: // documentation (RFC 5398)
		return true
	case asn == 65535 || asn == 4294967295: // last ASNs (RFC 7300)
		return true
	case asn >= 4200000000 && asn <= 4294967294: // private (RFC 6996)
		return true
	}
	return false
}

// SyntheticV4Prefix deterministically derives the i-th /24 of the
// simulator's synthetic IPv4 space: index i maps to 1.0.0.0 + i*256.
// Nothing skips bogon space. Indexes below 589,824 (1.0.0.0 up to
// 9.255.255.0) and from 655,360 up to 6,504,447 (11.0.0.0 up to
// 100.63.255.0) are clean, but the 65,536 indexes between those runs
// are 10.0.0.0/8, which a route server rejects. The callers keep to the
// clean runs: Generate's IPv4 tables stay below ≈ 452k at scale 1
// (DE-CIX's is 451,544 prefixes), blackhole host routes use indexes
// below 40,000, Generate's invalid announcements 900,000 and up, and
// evolved days' fresh prefixes 655,360 and up.
func SyntheticV4Prefix(i int) netip.Prefix {
	base := uint32(1 << 24) // 1.0.0.0
	v := base + uint32(i)*256
	a := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	return netip.PrefixFrom(netip.AddrFrom4(a), 24)
}

// SyntheticV6Prefix deterministically derives the i-th /48 inside
// 2400::/12-style synthetic space (we use 2a10::/16 and count up in
// /48 units).
func SyntheticV6Prefix(i int) netip.Prefix {
	var a [16]byte
	a[0], a[1] = 0x2a, 0x10
	a[2] = byte(i >> 24)
	a[3] = byte(i >> 16)
	a[4] = byte(i >> 8)
	a[5] = byte(i)
	return netip.PrefixFrom(netip.AddrFrom16(a), 48)
}

// PeerAddrV4 returns the deterministic IXP-LAN IPv4 address of the
// idx-th peer (the route server itself is index 0). IXP peering LANs
// are conventionally a /22-ish shared subnet; we synthesise one from
// 193.239.x.y which keeps addresses plausible and collision-free for
// up to 64k peers.
func PeerAddrV4(idx int) netip.Addr {
	return netip.AddrFrom4([4]byte{193, 239, byte(idx >> 8), byte(idx)})
}

// PeerAddrV6 returns the deterministic IXP-LAN IPv6 address of the
// idx-th peer.
func PeerAddrV6(idx int) netip.Addr {
	var a [16]byte
	a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x7f, 0x8b
	a[14] = byte(idx >> 8)
	a[15] = byte(idx)
	return netip.AddrFrom16(a)
}

// InPrefixBounds reports whether p lies in the route-server acceptance
// window the paper describes: IPv4 from /8 to /24 (more specific or
// broader is filtered), and the analogous /16–/48 window for IPv6.
func InPrefixBounds(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return 8 <= p.Bits() && p.Bits() <= 24
	}
	return 16 <= p.Bits() && p.Bits() <= 48
}
