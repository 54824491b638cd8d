package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// RIB attribute codec for MRT TABLE_DUMP_V2 entries (RFC 6396 §4.3.4).
// The encoding is the UPDATE path-attribute format of RFC 4271 §4.3
// with one MRT-specific twist: MP_REACH_NLRI is abbreviated to just the
// next-hop length and next-hop address (no AFI/SAFI, no NLRI).

// Path attribute type codes.
const (
	attrOrigin           = 1
	attrASPath           = 2
	attrNextHop          = 3
	attrMED              = 4
	attrLocalPref        = 5
	attrCommunities      = 8
	attrMPReachNLRI      = 14
	attrExtCommunities   = 16
	attrLargeCommunities = 32
)

// Path attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// maxAttrLen is the largest attribute payload the two-octet
// extended-length field can state: 16,383 standard, 8,191 extended or
// 5,461 large communities.
const maxAttrLen = 0xFFFF

// ErrShortMessage reports an attribute block truncated below its
// declared or minimum length.
var ErrShortMessage = errors.New("bgp: short message")

// appendAttr appends one path attribute, setting the extended-length
// flag when the payload exceeds 255 bytes. A payload over maxAttrLen
// has no encoding and is an error, not a truncated length.
func appendAttr(dst []byte, flags, typ byte, payload []byte) ([]byte, error) {
	switch {
	case len(payload) > maxAttrLen:
		return nil, fmt.Errorf("bgp: attribute %d payload of %d bytes exceeds %d", typ, len(payload), maxAttrLen)
	case len(payload) > 255:
		dst = append(dst, flags|flagExtLen, typ)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	default:
		dst = append(dst, flags, typ, byte(len(payload)))
	}
	return append(dst, payload...), nil
}

// parseASPathAttr decodes an AS_PATH payload of 4-octet AS_SEQUENCE
// segments; AS_SET and the other segment types are rejected.
func parseASPathAttr(payload []byte) (ASPath, error) {
	var path ASPath
	for len(payload) > 0 {
		if len(payload) < 2 {
			return nil, ErrShortMessage
		}
		segType, count := payload[0], int(payload[1])
		if segType != 2 {
			return nil, fmt.Errorf("bgp: unsupported AS_PATH segment type %d", segType)
		}
		need := 2 + count*4
		if len(payload) < need {
			return nil, ErrShortMessage
		}
		for i := 0; i < count; i++ {
			path = append(path, binary.BigEndian.Uint32(payload[2+i*4:6+i*4]))
		}
		payload = payload[need:]
	}
	return path, nil
}

// MarshalRIBAttributes encodes a route's path attributes in the MRT
// RIB-entry form. It fails on an AS path over 255 hops and on a
// community list whose attribute would exceed maxAttrLen.
func MarshalRIBAttributes(r Route) ([]byte, error) {
	if len(r.ASPath) > 255 {
		return nil, errors.New("bgp: AS path longer than 255")
	}
	var attrs []byte
	var err error
	add := func(flags, typ byte, payload []byte) {
		if err == nil {
			attrs, err = appendAttr(attrs, flags, typ, payload)
		}
	}
	add(flagTransitive, attrOrigin, []byte{byte(r.Origin)})

	var pathPayload []byte
	if len(r.ASPath) > 0 {
		pathPayload = append(pathPayload, 2, byte(len(r.ASPath)))
		for _, asn := range r.ASPath {
			pathPayload = binary.BigEndian.AppendUint32(pathPayload, asn)
		}
	}
	add(flagTransitive, attrASPath, pathPayload)

	if r.NextHop.Is4() {
		nh := r.NextHop.As4()
		add(flagTransitive, attrNextHop, nh[:])
	} else if r.NextHop.Is6() {
		// Abbreviated MP_REACH: nexthop length + nexthop.
		nh := r.NextHop.As16()
		add(flagOptional, attrMPReachNLRI, append([]byte{16}, nh[:]...))
	}
	if r.MED != 0 {
		add(flagOptional, attrMED, binary.BigEndian.AppendUint32(nil, r.MED))
	}
	if r.LocalPref != 0 {
		add(flagTransitive, attrLocalPref, binary.BigEndian.AppendUint32(nil, r.LocalPref))
	}
	if len(r.Communities) > 0 {
		payload := make([]byte, 0, 4*len(r.Communities))
		for _, c := range r.Communities {
			payload = binary.BigEndian.AppendUint32(payload, uint32(c))
		}
		add(flagOptional|flagTransitive, attrCommunities, payload)
	}
	if len(r.ExtCommunities) > 0 {
		payload := make([]byte, 0, 8*len(r.ExtCommunities))
		for _, e := range r.ExtCommunities {
			payload = append(payload, e[:]...)
		}
		add(flagOptional|flagTransitive, attrExtCommunities, payload)
	}
	if len(r.LargeCommunities) > 0 {
		payload := make([]byte, 0, 12*len(r.LargeCommunities))
		for _, l := range r.LargeCommunities {
			payload = binary.BigEndian.AppendUint32(payload, l.Global)
			payload = binary.BigEndian.AppendUint32(payload, l.Local1)
			payload = binary.BigEndian.AppendUint32(payload, l.Local2)
		}
		add(flagOptional|flagTransitive, attrLargeCommunities, payload)
	}
	if err != nil {
		return nil, err
	}
	return attrs, nil
}

// UnmarshalRIBAttributes decodes MRT RIB-entry attributes onto a route
// whose Prefix is already set (it decides the MP_REACH interpretation).
func UnmarshalRIBAttributes(attrs []byte, r *Route) error {
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return ErrShortMessage
		}
		flags, typ := attrs[0], attrs[1]
		var plen, hdr int
		if flags&flagExtLen != 0 {
			if len(attrs) < 4 {
				return ErrShortMessage
			}
			plen, hdr = int(binary.BigEndian.Uint16(attrs[2:4])), 4
		} else {
			plen, hdr = int(attrs[2]), 3
		}
		if len(attrs) < hdr+plen {
			return ErrShortMessage
		}
		payload := attrs[hdr : hdr+plen]
		attrs = attrs[hdr+plen:]

		switch typ {
		case attrOrigin:
			if plen != 1 {
				return fmt.Errorf("bgp: ORIGIN length %d", plen)
			}
			r.Origin = Origin(payload[0])
		case attrASPath:
			path, err := parseASPathAttr(payload)
			if err != nil {
				return err
			}
			r.ASPath = path
		case attrNextHop:
			if plen != 4 {
				return fmt.Errorf("bgp: NEXT_HOP length %d", plen)
			}
			r.NextHop = netip.AddrFrom4([4]byte(payload))
		case attrMPReachNLRI:
			// Abbreviated form: nexthop length + nexthop.
			if plen < 1 {
				return errors.New("bgp: abbreviated MP_REACH is empty")
			}
			if int(payload[0]) != plen-1 {
				return fmt.Errorf("bgp: abbreviated MP_REACH length mismatch (%d vs %d)", payload[0], plen-1)
			}
			switch payload[0] {
			case 16:
				r.NextHop = netip.AddrFrom16([16]byte(payload[1:17]))
			case 4:
				r.NextHop = netip.AddrFrom4([4]byte(payload[1:5]))
			default:
				return fmt.Errorf("bgp: abbreviated MP_REACH next hop length %d", payload[0])
			}
		case attrMED:
			if plen != 4 {
				return fmt.Errorf("bgp: MED length %d", plen)
			}
			r.MED = binary.BigEndian.Uint32(payload)
		case attrLocalPref:
			if plen != 4 {
				return fmt.Errorf("bgp: LOCAL_PREF length %d", plen)
			}
			r.LocalPref = binary.BigEndian.Uint32(payload)
		case attrCommunities:
			if plen%4 != 0 {
				return fmt.Errorf("bgp: COMMUNITIES length %d", plen)
			}
			for i := 0; i < plen; i += 4 {
				r.Communities = append(r.Communities, Community(binary.BigEndian.Uint32(payload[i:i+4])))
			}
		case attrExtCommunities:
			if plen%8 != 0 {
				return fmt.Errorf("bgp: EXTENDED_COMMUNITIES length %d", plen)
			}
			for i := 0; i < plen; i += 8 {
				r.ExtCommunities = append(r.ExtCommunities, ExtendedCommunity(payload[i:i+8]))
			}
		case attrLargeCommunities:
			if plen%12 != 0 {
				return fmt.Errorf("bgp: LARGE_COMMUNITY length %d", plen)
			}
			for i := 0; i < plen; i += 12 {
				r.LargeCommunities = append(r.LargeCommunities, LargeCommunity{
					Global: binary.BigEndian.Uint32(payload[i : i+4]),
					Local1: binary.BigEndian.Uint32(payload[i+4 : i+8]),
					Local2: binary.BigEndian.Uint32(payload[i+8 : i+12]),
				})
			}
		default:
			if flags&flagOptional == 0 {
				return fmt.Errorf("bgp: unrecognised well-known attribute %d", typ)
			}
		}
	}
	return nil
}
