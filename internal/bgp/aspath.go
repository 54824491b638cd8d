package bgp

import (
	"slices"
	"strconv"
	"strings"
)

// ASPath is a sequence of AS numbers, most-recent (neighbour) first.
// Only AS_SEQUENCE segments are modelled; AS_SET has been deprecated
// for new advertisements (RFC 6472) and never appears at IXP route
// servers, whose import filters reject it.
type ASPath []uint32

// Origin returns the originating AS (the last element), or 0 for an
// empty path.
func (p ASPath) Origin() uint32 {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1]
}

// Neighbor returns the first AS on the path (the announcing peer), or
// 0 for an empty path.
func (p ASPath) Neighbor() uint32 {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// Prepend returns a copy of p with asn prepended n times. It never
// mutates p, so routes sharing a path slice stay independent.
func (p ASPath) Prepend(asn uint32, n int) ASPath {
	if n <= 0 {
		return slices.Clone(p)
	}
	out := make(ASPath, 0, len(p)+n)
	for i := 0; i < n; i++ {
		out = append(out, asn)
	}
	return append(out, p...)
}

// Contains reports whether asn appears anywhere on the path.
func (p ASPath) Contains(asn uint32) bool {
	return slices.Contains(p, asn)
}

// HasLoop reports whether any AS appears more than once in a
// non-adjacent position, which indicates a routing loop rather than
// legitimate prepending.
func (p ASPath) HasLoop() bool {
	// An AS loops when it comes back after something else: it differs
	// from its predecessor (that would be prepending) and equals an
	// earlier hop. Paths are a handful of hops — a wire UPDATE caps them
	// near a thousand — so the scan stays cheap and allocates nothing.
	for i := 2; i < len(p); i++ {
		if p[i] != p[i-1] && slices.Contains(p[:i-1], p[i]) {
			return true
		}
	}
	return false
}

// Len returns the number of hops counting prepends, i.e. the value BGP
// path selection compares.
func (p ASPath) Len() int { return len(p) }

// String renders the path as space-separated ASNs ("6939 13335 ...").
func (p ASPath) String() string {
	if len(p) == 0 {
		return ""
	}
	var b strings.Builder
	for i, asn := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(asn), 10))
	}
	return b.String()
}

// ParseASPath parses a space-separated ASN list as produced by String.
func ParseASPath(s string) (ASPath, error) {
	fields := strings.Fields(s)
	p := make(ASPath, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, err
		}
		p = append(p, uint32(v))
	}
	return p, nil
}
