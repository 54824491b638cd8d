package bgp

import (
	"fmt"
	"strconv"
	"strings"
)

// LargeCommunity is an RFC 8092 large community: three 32-bit fields
// written "global:local1:local2". Large communities exist precisely
// because 32-bit ASNs cannot fit in either half of a standard
// community; IXPs whose route-server ASN or member ASNs exceed 16 bits
// define their action schemes over large communities instead.
type LargeCommunity struct {
	Global uint32 // usually the defining ASN
	Local1 uint32 // function selector in IXP schemes
	Local2 uint32 // operand (target ASN) in IXP schemes
}

// String renders the canonical "global:local1:local2" notation.
func (l LargeCommunity) String() string {
	return string(l.AppendTo(make([]byte, 0, 32)))
}

// AppendTo appends the String form to b.
func (l LargeCommunity) AppendTo(b []byte) []byte {
	b = appendDecimal(b, l.Global)
	b = append(b, ':')
	b = appendDecimal(b, l.Local1)
	b = append(b, ':')
	return appendDecimal(b, l.Local2)
}

// ParseLargeCommunity parses the "global:local1:local2" notation.
func ParseLargeCommunity(s string) (LargeCommunity, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return LargeCommunity{}, fmt.Errorf("bgp: large community %q: want \"global:local1:local2\"", s)
	}
	var vals [3]uint32
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return LargeCommunity{}, fmt.Errorf("bgp: large community %q: field %d: %v", s, i+1, err)
		}
		vals[i] = uint32(v)
	}
	return LargeCommunity{Global: vals[0], Local1: vals[1], Local2: vals[2]}, nil
}

// Less orders large communities field-by-field, the emission order
// required by RFC 8092 §5.
func (l LargeCommunity) Less(o LargeCommunity) bool {
	if l.Global != o.Global {
		return l.Global < o.Global
	}
	if l.Local1 != o.Local1 {
		return l.Local1 < o.Local1
	}
	return l.Local2 < o.Local2
}
