package netutil

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

func TestIsBogonPrefix(t *testing.T) {
	bogons := []string{
		"10.0.0.0/8", "10.1.2.0/24", "192.168.1.0/24", "127.0.0.1/32",
		"100.64.0.0/10", "224.0.0.0/8", "0.0.0.0/0",
		"fe80::/64", "fc00::/8", "::1/128", "ff02::/16",
		"10.255.255.0/24", "100.127.255.0/24", "8.0.0.0/6", "2001::/32",
		"2001:0:7fff:ffff::/64", "100::/48", "100::1/128",
		"::ffff:10.0.0.1/128", "::ffff:8.8.8.8/128", // IPv4-mapped: inside ::/8
	}
	for _, s := range bogons {
		if !IsBogonPrefix(netip.MustParsePrefix(s)) {
			t.Errorf("IsBogonPrefix(%s) = false, want true", s)
		}
	}
	clean := []string{
		"1.0.0.0/24", "8.8.8.0/24", "193.239.0.0/22",
		"2a10::/16", "2600::/16", "2001:db8::/32",
		"9.255.255.0/24", "11.0.0.0/8", "100.63.255.0/24", "100.128.0.0/10",
		"2001:0:8000::/33", "100:0:0:1::/64", "200::/7",
	}
	for _, s := range clean {
		if IsBogonPrefix(netip.MustParsePrefix(s)) {
			t.Errorf("IsBogonPrefix(%s) = true, want false", s)
		}
	}
	if IsBogonPrefix(netip.Prefix{}) {
		t.Error("IsBogonPrefix(invalid prefix) = true, want false")
	}
}

// overlapsBogon is the reference IsBogonPrefix answers for: does any
// bogon block of the prefix's family overlap it as CIDR blocks.
func overlapsBogon(p netip.Prefix) bool {
	table := bogonV4
	if p.Addr().Is6() {
		table = bogonV6
	}
	for _, b := range table {
		if b.Overlaps(p) {
			return true
		}
	}
	return false
}

// nearBogon draws a prefix of any length, unmasked, whose address is
// usually at or just outside the first or last address of a bogon
// block — off by a small multiple of a random power of two — and
// otherwise anywhere. One in eight IPv4 draws is IPv4-mapped IPv6.
func nearBogon(rng *rand.Rand) netip.Prefix {
	v6 := rng.Intn(2) == 0
	table := bogonV4
	if v6 {
		table = bogonV6
	}
	b := table[rng.Intn(len(table))]
	hi, lo := addrWords(b.Masked().Addr())
	if rng.Intn(2) == 0 { // the block's last address
		hi |= ^uint64(0) >> b.Bits()
		lo = ^uint64(0)
	}
	switch k := rng.Intn(64); rng.Intn(4) {
	case 0:
		hi, lo = rng.Uint64(), rng.Uint64()
	case 1:
		hi += uint64(rng.Intn(3)) << k
	case 2:
		hi -= uint64(rng.Intn(3)) << k
	default:
		lo += uint64(rng.Intn(3)-1) << k
	}
	var a netip.Addr
	if v6 {
		a = addrFromWords(hi, lo)
	} else {
		a = netip.AddrFrom4([4]byte{byte(hi >> 56), byte(hi >> 48), byte(hi >> 40), byte(hi >> 32)})
		if rng.Intn(8) == 0 {
			a = netip.AddrFrom16(a.As16())
		}
	}
	return netip.PrefixFrom(a, rng.Intn(a.BitLen()+1))
}

// addrWords splits an address into two 64-bit words, an IPv4 address
// in the top 32 bits of the first.
func addrWords(a netip.Addr) (hi, lo uint64) {
	if a.Is4() {
		b := a.As4()
		return uint64(binary.BigEndian.Uint32(b[:])) << 32, 0
	}
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

func addrFromWords(hi, lo uint64) netip.Addr {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	return netip.AddrFrom16(b)
}

// TestIsBogonPrefixMatchesOverlaps holds the span compare to the CIDR
// overlap loop it replaced on half a million seeded prefixes around
// every block's edges.
func TestIsBogonPrefixMatchesOverlaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bogons := 0
	for i := 0; i < 500_000; i++ {
		p := nearBogon(rng)
		want := overlapsBogon(p)
		if got := IsBogonPrefix(p); got != want {
			t.Fatalf("IsBogonPrefix(%s) = %v, Overlaps says %v", p, got, want)
		}
		if want {
			bogons++
		}
	}
	// Both answers must be common, or the draw misses the edges.
	if bogons < 100_000 || bogons > 400_000 {
		t.Errorf("%d of 500000 draws are bogons; the draw is not biased around the blocks", bogons)
	}
}

// FuzzBogonPrefix compares IsBogonPrefix with the overlap loop on any
// address and length, valid or not; v4 takes the top 32 bits of hi.
func FuzzBogonPrefix(f *testing.F) {
	for _, b := range append(append([]netip.Prefix(nil), bogonV4...), bogonV6...) {
		hi, lo := addrWords(b.Addr())
		v4 := b.Addr().Is4()
		last := hi | ^uint64(0)>>b.Bits()
		f.Add(hi, lo, uint8(b.Bits()), v4)
		f.Add(hi-1<<32, ^uint64(0), uint8(24), v4)
		f.Add(last, ^uint64(0), uint8(b.Bits()), v4)
		f.Add(last+1<<32, uint64(0), uint8(b.Bits()+1), v4)
	}
	f.Fuzz(func(t *testing.T, hi, lo uint64, bits uint8, v4 bool) {
		a := addrFromWords(hi, lo)
		if v4 {
			a = netip.AddrFrom4([4]byte{byte(hi >> 56), byte(hi >> 48), byte(hi >> 40), byte(hi >> 32)})
		}
		p := netip.PrefixFrom(a, int(bits))
		if got, want := IsBogonPrefix(p), overlapsBogon(p); got != want {
			t.Errorf("IsBogonPrefix(%s) = %v, Overlaps says %v", p, got, want)
		}
	})
}

func TestIsBogonASN(t *testing.T) {
	for _, asn := range []uint32{0, 23456, 64496, 64511, 65535, 65536, 65551, 4200000000, 4294967295} {
		if !IsBogonASN(asn) {
			t.Errorf("IsBogonASN(%d) = false, want true", asn)
		}
	}
	for _, asn := range []uint32{1, 6939, 15169, 64495, 64512, 65534, 65552, 263075, 4199999999} {
		if IsBogonASN(asn) {
			t.Errorf("IsBogonASN(%d) = true, want false", asn)
		}
	}
}

// TestSyntheticV4PrefixDistinctAndClean walks the two clean index runs
// SyntheticV4Prefix documents, as far as its callers reach: Generate's
// tables and blackhole routes below 589,824, invalid announcements and
// evolved days' fresh prefixes from 655,360 (a twelve-week series at
// scale 1 reaches ≈ 1.5 M). Addresses rise with the index, so they are
// distinct. The run between is 10.0.0.0/8.
func TestSyntheticV4PrefixDistinctAndClean(t *testing.T) {
	runs := [][2]int{{0, 589_824}, {655_360, 2_000_000}}
	for _, run := range runs {
		var prev netip.Addr
		for i := run[0]; i < run[1]; i++ {
			p := SyntheticV4Prefix(i)
			if p.Bits() != 24 {
				t.Fatalf("prefix %d = %s, want /24", i, p)
			}
			if prev.IsValid() && !prev.Less(p.Addr()) {
				t.Fatalf("prefix %d = %s does not follow %s", i, p, prev)
			}
			prev = p.Addr()
			if IsBogonPrefix(p) {
				t.Fatalf("synthetic prefix %d = %s is a bogon", i, p)
			}
			if !InPrefixBounds(p) {
				t.Fatalf("synthetic prefix %s out of bounds", p)
			}
		}
	}
	for _, i := range []int{589_824, 655_359} {
		if p := SyntheticV4Prefix(i); !IsBogonPrefix(p) {
			t.Errorf("SyntheticV4Prefix(%d) = %s, want inside 10.0.0.0/8", i, p)
		}
	}
}

func TestSyntheticV6PrefixDistinctAndClean(t *testing.T) {
	seen := map[netip.Prefix]bool{}
	for i := 0; i < 10000; i++ {
		p := SyntheticV6Prefix(i)
		if p.Bits() != 48 {
			t.Fatalf("prefix %d = %s, want /48", i, p)
		}
		if seen[p] {
			t.Fatalf("duplicate prefix at index %d: %s", i, p)
		}
		seen[p] = true
		if IsBogonPrefix(p) {
			t.Fatalf("synthetic prefix %s is a bogon", p)
		}
	}
}

func TestPeerAddrsDistinct(t *testing.T) {
	seen4 := map[netip.Addr]bool{}
	seen6 := map[netip.Addr]bool{}
	for i := 0; i < 3000; i++ {
		a4, a6 := PeerAddrV4(i), PeerAddrV6(i)
		if seen4[a4] || seen6[a6] {
			t.Fatalf("duplicate peer address at index %d", i)
		}
		seen4[a4], seen6[a6] = true, true
		if !a4.Is4() || !a6.Is6() {
			t.Fatalf("family mismatch at index %d", i)
		}
	}
}

func TestInPrefixBounds(t *testing.T) {
	for _, s := range []string{"1.2.3.0/25", "1.0.0.0/7", "2a10::/49", "2a10::/12"} {
		if InPrefixBounds(netip.MustParsePrefix(s)) {
			t.Errorf("InPrefixBounds(%s) = true, want false", s)
		}
	}
	for _, s := range []string{"1.2.3.0/24", "1.0.0.0/8", "2a10::/48", "2a10::/16"} {
		if !InPrefixBounds(netip.MustParsePrefix(s)) {
			t.Errorf("InPrefixBounds(%s) = false, want true", s)
		}
	}
}
