package lg

import (
	"net/netip"
	"strconv"
	"sync"

	"ixplight/internal/bgp"
	"ixplight/internal/jsonstr"
)

// The routes endpoint renders its pages by hand: a page is most of
// what a crawl moves over the wire, and appending it field by field
// costs a fraction of reflecting over []APIRoute. The bytes are exactly
// what json.NewEncoder(w).Encode(RoutesResponse{…}) writes for the same
// page built with EncodeRoute — TestRoutesPageMatchesEncodingJSON holds
// the two together — so RoutesResponse/APIRoute remain the definition
// of the wire shape and this file only its fast renderer.

// pagePool recycles page buffers across requests.
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// routeSep is the byte that precedes route n of a page's array.
func routeSep(n int) byte {
	if n == 0 {
		return '['
	}
	return ','
}

// pageHeadMax bounds what appendPageHead writes: the four paging
// members, each a decimal int of at most 20 bytes, and the comma
// before routes.
const pageHeadMax = len(`{"page":,"page_size":,"total_pages":,"total_count":,`) + 4*20

// appendPageHead appends the start of a page: the opening brace and
// the paging members, which RoutesResponse declares before its routes
// so a reader can size the listing before the routes arrive.
func appendPageHead(b []byte, page, size, totalPages, total int) []byte {
	b = append(b, `{"page":`...)
	b = strconv.AppendInt(b, int64(page), 10)
	b = append(b, `,"page_size":`...)
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, `,"total_pages":`...)
	b = strconv.AppendInt(b, int64(totalPages), 10)
	b = append(b, `,"total_count":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	return append(b, ',')
}

// appendPageTail closes the routes array of a page that holds n routes
// (encoding/json renders the never-appended-to slice of an empty page
// as null), the page and Encode's newline.
func appendPageTail(b []byte, n int) []byte {
	if n == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// appendAPIRoute appends EncodeRoute(*r) as encoding/json renders it.
func appendAPIRoute(b []byte, r *bgp.Route) []byte {
	b = append(b, `{"network":`...)
	if r.Prefix.IsValid() {
		b = append(b, '"')
		b = r.Prefix.AppendTo(b)
		b = append(b, '"')
	} else {
		b = jsonstr.Append(b, r.Prefix.String())
	}
	b = append(b, `,"gateway":`...)
	b = appendAddr(b, r.NextHop)
	b = append(b, `,"as_path":`...)
	if r.ASPath == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, asn := range r.ASPath {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(asn), 10)
		}
		b = append(b, ']')
	}
	if r.MED != 0 {
		b = append(b, `,"med":`...)
		b = strconv.AppendUint(b, uint64(r.MED), 10)
	}
	if r.LocalPref != 0 {
		b = append(b, `,"local_pref":`...)
		b = strconv.AppendUint(b, uint64(r.LocalPref), 10)
	}
	if r.Origin != 0 {
		b = append(b, `,"origin":`...)
		b = strconv.AppendUint(b, uint64(r.Origin), 10)
	}
	// EncodeRoute builds the three string lists by appending, so an
	// empty list is a nil one: null for communities, omitted for the
	// omitempty pair.
	b = append(b, `,"communities":`...)
	if len(r.Communities) == 0 {
		b = append(b, "null"...)
	} else {
		for i, c := range r.Communities {
			b = append(b, routeSep(i), '"')
			b = c.AppendTo(b)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	if len(r.ExtCommunities) > 0 {
		b = append(b, `,"ext_communities":`...)
		for i, e := range r.ExtCommunities {
			b = append(b, routeSep(i), '"')
			b = e.AppendTo(b)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	if len(r.LargeCommunities) > 0 {
		b = append(b, `,"large_communities":`...)
		for i, l := range r.LargeCommunities {
			b = append(b, routeSep(i), '"')
			b = l.AppendTo(b)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendAddr appends a.String() as a JSON string. Only an unzoned
// valid address is known to need no escaping (and AppendTo renders the
// zero Addr as nothing where String says "invalid IP").
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() || a.Zone() != "" {
		return jsonstr.Append(b, a.String())
	}
	b = append(b, '"')
	b = a.AppendTo(b)
	return append(b, '"')
}
