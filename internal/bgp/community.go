package bgp

import (
	"fmt"
	"strconv"
	"strings"
)

// Community is an RFC 1997 standard BGP community: a 32-bit value
// conventionally written and interpreted as two 16-bit halves
// "ASN:value". The high half usually names the network that defines
// the community's semantics, the low half carries the operand (for
// IXP action communities, typically the target peer ASN).
type Community uint32

// NewCommunity builds a community from its two 16-bit halves.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits (the defining ASN by convention).
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits (the operand).
func (c Community) Value() uint16 { return uint16(c) }

// String renders the community in the canonical "asn:value" notation.
func (c Community) String() string {
	return string(c.AppendTo(make([]byte, 0, 11)))
}

// AppendTo appends the String form to b.
func (c Community) AppendTo(b []byte) []byte {
	b = appendDecimal(b, uint32(c.ASN()))
	b = append(b, ':')
	return appendDecimal(b, uint32(c.Value()))
}

// appendDecimal is strconv.AppendUint(b, uint64(v), 10) without its
// generality: community text is most of a looking-glass page, two
// short numbers at a time.
func appendDecimal(b []byte, v uint32) []byte {
	var buf [10]byte
	i := len(buf) - 1
	for ; v >= 10; i, v = i-1, v/10 {
		buf[i] = byte('0' + v%10)
	}
	buf[i] = byte('0' + v)
	return append(b, buf[i:]...)
}

// BlackholeWellKnown is the RFC 7999 BLACKHOLE community (65535:666),
// in the well-known range RFC 1997 reserves.
const BlackholeWellKnown Community = 0xFFFF029A

// ParseCommunity parses the "asn:value" notation. Both halves must be
// decimal integers within uint16 range.
func ParseCommunity(s string) (Community, error) {
	a, v, ok := strings.Cut(s, ":")
	if !ok {
		return 0, fmt.Errorf("bgp: community %q: want \"asn:value\"", s)
	}
	asn, err := strconv.ParseUint(a, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad asn: %v", s, err)
	}
	val, err := strconv.ParseUint(v, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad value: %v", s, err)
	}
	return NewCommunity(uint16(asn), uint16(val)), nil
}

// MustParseCommunity is ParseCommunity for constant-like inputs; it
// panics on error and is intended for tests and static tables.
func MustParseCommunity(s string) Community {
	c, err := ParseCommunity(s)
	if err != nil {
		panic(err)
	}
	return c
}

// HasCommunity reports whether cs contains c. Community lists on real
// routes are short (a handful of entries), so a linear scan beats any
// indexed structure (EXPERIMENTS.md §Ablations).
func HasCommunity(cs []Community, c Community) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}
