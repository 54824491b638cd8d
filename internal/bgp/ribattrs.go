package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// RIB attribute codec for MRT TABLE_DUMP_V2 entries (RFC 6396 §4.3.4).
// The encoding is the UPDATE path-attribute format with one
// MRT-specific twist: MP_REACH_NLRI is abbreviated to just the next-hop
// length and next-hop address (no AFI/SAFI, no NLRI).

// MarshalRIBAttributes encodes a route's path attributes in the MRT
// RIB-entry form.
func MarshalRIBAttributes(r Route) ([]byte, error) {
	var attrs []byte
	attrs = appendAttr(attrs, flagTransitive, attrOrigin, []byte{byte(r.Origin)})

	var pathPayload []byte
	if len(r.ASPath) > 0 {
		if len(r.ASPath) > 255 {
			return nil, errors.New("bgp: AS path longer than 255")
		}
		pathPayload = append(pathPayload, 2, byte(len(r.ASPath)))
		for _, asn := range r.ASPath {
			pathPayload = binary.BigEndian.AppendUint32(pathPayload, asn)
		}
	}
	attrs = appendAttr(attrs, flagTransitive, attrASPath, pathPayload)

	if r.NextHop.Is4() {
		nh := r.NextHop.As4()
		attrs = appendAttr(attrs, flagTransitive, attrNextHop, nh[:])
	} else if r.NextHop.Is6() {
		// Abbreviated MP_REACH: nexthop length + nexthop.
		nh := r.NextHop.As16()
		payload := append([]byte{16}, nh[:]...)
		attrs = appendAttr(attrs, flagOptional, attrMPReachNLRI, payload)
	}
	if r.MED != 0 {
		attrs = appendAttr(attrs, flagOptional, attrMED, binary.BigEndian.AppendUint32(nil, r.MED))
	}
	if r.LocalPref != 0 {
		attrs = appendAttr(attrs, flagTransitive, attrLocalPref, binary.BigEndian.AppendUint32(nil, r.LocalPref))
	}
	if len(r.Communities) > 0 {
		payload := make([]byte, 0, 4*len(r.Communities))
		for _, c := range r.Communities {
			payload = binary.BigEndian.AppendUint32(payload, uint32(c))
		}
		attrs = appendAttr(attrs, flagOptional|flagTransitive, attrCommunities, payload)
	}
	if len(r.ExtCommunities) > 0 {
		payload := make([]byte, 0, 8*len(r.ExtCommunities))
		for _, e := range r.ExtCommunities {
			payload = append(payload, e[:]...)
		}
		attrs = appendAttr(attrs, flagOptional|flagTransitive, attrExtCommunities, payload)
	}
	if len(r.LargeCommunities) > 0 {
		payload := make([]byte, 0, 12*len(r.LargeCommunities))
		for _, l := range r.LargeCommunities {
			payload = binary.BigEndian.AppendUint32(payload, l.Global)
			payload = binary.BigEndian.AppendUint32(payload, l.Local1)
			payload = binary.BigEndian.AppendUint32(payload, l.Local2)
		}
		attrs = appendAttr(attrs, flagOptional|flagTransitive, attrLargeCommunities, payload)
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
