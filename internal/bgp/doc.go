// Package bgp implements the subset of the Border Gateway Protocol
// (RFC 4271) needed to model an IXP route-server ecosystem: routes,
// AS paths and the three BGP community attribute flavours (standard
// RFC 1997, extended RFC 4360, large RFC 8092), plus the path-attribute
// codec of MRT RIB entries (RFC 6396) with 4-octet AS numbers
// (RFC 6793).
//
// The package is self-contained and allocation-conscious: routes and
// communities are value types, attribute parsing validates lengths
// before slicing, and the codec round-trips (see the tests).
package bgp
