package bgp

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// ExtendedCommunity is an RFC 4360 extended community: an 8-byte
// opaque value whose first byte(s) select a type and sub-type. Only
// the two-octet-AS-specific encodings (the ones IXPs use, e.g. for
// fine-grained prepending at AMS-IX) get structured accessors; any
// other value round-trips as opaque bytes.
type ExtendedCommunity [8]byte

// Extended community type / sub-type constants (RFC 4360, RFC 7153).
const (
	ExtTypeTwoOctetAS       = 0x00 // transitive two-octet AS specific
	ExtTypeNonTransTwoOctet = 0x40
	ExtSubTypeRouteTarget   = 0x02
	ExtSubTypeRouteOrigin   = 0x03
	ExtSubTypeTrafficAction = 0x06
	ExtSubTypePrependAction = 0x80 // IXP-local convention used here
)

// NewTwoOctetASExtended builds a transitive two-octet-AS-specific
// extended community: type byte, sub-type byte, 2-byte ASN, 4-byte
// local administrator value.
func NewTwoOctetASExtended(subType byte, asn uint16, local uint32) ExtendedCommunity {
	var e ExtendedCommunity
	e[0] = ExtTypeTwoOctetAS
	e[1] = subType
	binary.BigEndian.PutUint16(e[2:4], asn)
	binary.BigEndian.PutUint32(e[4:8], local)
	return e
}

// Type returns the high type byte.
func (e ExtendedCommunity) Type() byte { return e[0] }

// SubType returns the sub-type byte.
func (e ExtendedCommunity) SubType() byte { return e[1] }

// IsTwoOctetAS reports whether e uses the two-octet-AS-specific
// encoding (transitive or not).
func (e ExtendedCommunity) IsTwoOctetAS() bool {
	return e[0] == ExtTypeTwoOctetAS || e[0] == ExtTypeNonTransTwoOctet
}

// ASN returns the 2-byte ASN field of a two-octet-AS-specific value.
func (e ExtendedCommunity) ASN() uint16 { return binary.BigEndian.Uint16(e[2:4]) }

// LocalAdmin returns the 4-byte local administrator field of a
// two-octet-AS-specific value.
func (e ExtendedCommunity) LocalAdmin() uint32 { return binary.BigEndian.Uint32(e[4:8]) }

// String renders two-octet-AS-specific values as "type:asn:local" and
// anything else as raw hex.
func (e ExtendedCommunity) String() string {
	return string(e.AppendTo(make([]byte, 0, 20)))
}

// AppendTo appends the String form to b.
func (e ExtendedCommunity) AppendTo(b []byte) []byte {
	if !e.IsTwoOctetAS() {
		return hex.AppendEncode(b, e[:])
	}
	b = appendDecimal(b, uint32(e.SubType()))
	b = append(b, ':')
	b = appendDecimal(b, uint32(e.ASN()))
	b = append(b, ':')
	return appendDecimal(b, e.LocalAdmin())
}

// ParseExtendedCommunity parses the "subtype:asn:local" notation
// produced by String for two-octet-AS-specific values.
func ParseExtendedCommunity(s string) (ExtendedCommunity, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return ExtendedCommunity{}, fmt.Errorf("bgp: extended community %q: want \"subtype:asn:local\"", s)
	}
	st, err := strconv.ParseUint(parts[0], 10, 8)
	if err != nil {
		return ExtendedCommunity{}, fmt.Errorf("bgp: extended community %q: bad subtype: %v", s, err)
	}
	asn, err := strconv.ParseUint(parts[1], 10, 16)
	if err != nil {
		return ExtendedCommunity{}, fmt.Errorf("bgp: extended community %q: bad asn: %v", s, err)
	}
	local, err := strconv.ParseUint(parts[2], 10, 32)
	if err != nil {
		return ExtendedCommunity{}, fmt.Errorf("bgp: extended community %q: bad local: %v", s, err)
	}
	return NewTwoOctetASExtended(byte(st), uint16(asn), uint32(local)), nil
}
