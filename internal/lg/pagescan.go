package lg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/netip"
	"slices"

	"ixplight/internal/bgp"
)

// The client's half of the routes wire shape. decodePageJSON is what a
// page means: json.Unmarshal into RoutesResponse, then decodeRoute on
// each route. That costs an APIRoute and a string per community, so
// decodePage first scans the body straight into bgp.Route values, with
// no reflection, as long as it has the shape render.go emits:
//
//   - JSON white space between tokens;
//   - members of RoutesResponse and APIRoute, each spelled exactly and
//     present at most once;
//   - strings of printable ASCII with no escape;
//   - integers of plain digits with no leading zero: paging fields at
//     most 2^60, AS numbers, MED and local-pref at most 2^32−1, origin
//     at most 2;
//   - null only for a whole routes or attribute list;
//   - routes that have both network and gateway, whose gateway parses
//     and whose network is spelt as netip.Prefix.AppendTo writes it;
//   - nothing but white space after the closing brace.
//
// The LG renders the paging members before routes. When a page has
// them there, the scanner sizes the listing from them before the first
// route: the route slice to total_count on page 0, the attribute maps
// to the page's routes.
//
// Any other body is handed to decodePageJSON, whose answer is the
// page's: the scanner never calls a body malformed or a route bad.
// FuzzRoutesPageDecode holds the two together.

// Field indices: the members of RoutesResponse and of APIRoute.
const (
	pagePage = iota
	pagePageSize
	pageTotalPages
	pageTotalCount
	pageRoutes
)

const (
	routeNetwork = iota
	routeGateway
	routeASPath
	routeMED
	routeLocalPref
	routeOrigin
	routeCommunities
	routeExtCommunities
	routeLargeCommunities
)

var (
	pageFields  = []string{"page", "page_size", "total_pages", "total_count", "routes"}
	routeFields = []string{"network", "gateway", "as_path", "med", "local_pref", "origin", "communities", "ext_communities", "large_communities"}
)

// maxPageField bounds the paging fields the scanner reads: small enough
// that reading a digit cannot overflow, and an int on every platform.
const maxPageField = min(1<<60, math.MaxInt)

// maxPresize caps the route slice a page header sizes: the figure is
// the server's.
const maxPresize = 1 << 20

// pageInfo is what a page says about itself besides its routes.
type pageInfo struct {
	routes     int // routes on this page
	page       int
	pageSize   int
	totalPages int
	totalCount int
}

// attrTable stores one kind of route attribute slice for a listing:
// values are cut from chunks (one allocation per chunk, not per route)
// and equal values share one slice, found again by the hash of their
// JSON text. Sharing is the binary decoder's aliasing contract: routes
// of a snapshot are immutable, Clone before modifying. Chunks double
// from minAttrChunk to maxAttrChunk elements, so the unused tail a
// snapshot keeps alive is at most about what a short listing used.
type attrTable[T comparable] struct {
	chunk   []T
	shared  map[uint64][]T
	scratch []T
}

const minAttrChunk, maxAttrChunk = 64, 2048

// minAttrScratch is where a table's scratch list starts, on its first
// value: one allocation covers the lists a listing's routes carry,
// where growing from one took several.
const minAttrScratch = 16

// share returns the stored slice equal to vals, storing it first if
// there is none; a table's map starts at hint entries.
func (t *attrTable[T]) share(textHash uint64, vals []T, hint int) []T {
	if v, ok := t.shared[textHash]; ok && slices.Equal(v, vals) {
		return v
	}
	if cap(t.chunk)-len(t.chunk) < len(vals) {
		t.chunk = make([]T, 0, max(min(2*cap(t.chunk), maxAttrChunk), minAttrChunk, len(vals)))
	}
	from := len(t.chunk)
	t.chunk = append(t.chunk, vals...)
	v := t.chunk[from:len(t.chunk):len(t.chunk)]
	if t.shared == nil {
		t.shared = make(map[uint64][]T, hint)
	}
	t.shared[textHash] = v
	return v
}

// listingDecoder decodes the pages of one routes listing, appending to
// one route slice. Attribute storage and the gateway memo live as long
// as the listing; everything else is per page.
type listingDecoder struct {
	seed   maphash.Seed
	paths  attrTable[uint32]
	comms  attrTable[bgp.Community]
	exts   attrTable[bgp.ExtendedCommunity]
	larges attrTable[bgp.LargeCommunity]

	// The last gateway text and what it parsed to: a listing repeats
	// the neighbor's one or two next hops on every route.
	gwText []byte
	gw     netip.Addr

	// Page state: the body and the cursor in it, the listing the page's
	// routes are appended to, the paging fields, and how many routes
	// the header says the page holds (0 without one).
	b            []byte
	i            int
	routes       []bgp.Route
	info         pageInfo
	headerRoutes int
}

func newListingDecoder() *listingDecoder {
	return &listingDecoder{seed: maphash.MakeSeed()}
}

// errBadRoute marks decodeRoute's kind of failure: valid JSON whose
// route text does not parse. It is not retryable.
type errBadRoute struct{ err error }

func (e *errBadRoute) Error() string { return e.err.Error() }
func (e *errBadRoute) Unwrap() error { return e.err }

// decodePage decodes one page body, appending its routes to routes.
// A malformed body is returned as json.Unmarshal's error (the caller's
// bad_json); a route that does not parse as *errBadRoute. On any error
// routes is returned unextended.
func (d *listingDecoder) decodePage(body []byte, routes []bgp.Route) ([]bgp.Route, pageInfo, error) {
	d.routes = routes
	ok := d.scan(body)
	scanned := d.routes
	d.routes, d.b = nil, nil
	if ok {
		return scanned, d.info, nil
	}
	return decodePageJSON(body, routes)
}

// decodePageJSON decodes one page body as the wire shape defines it,
// appending its routes to routes; on an error routes is returned
// unextended. A syntax error names its offset, a type error its field.
func decodePageJSON(body []byte, routes []bgp.Route) ([]bgp.Route, pageInfo, error) {
	var resp RoutesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) {
			err = fmt.Errorf("offset %d: %w", syntax.Offset, err)
		}
		return routes, pageInfo{}, err
	}
	base := len(routes)
	for _, ar := range resp.Routes {
		r, err := decodeRoute(ar)
		if err != nil {
			return routes[:base], pageInfo{}, &errBadRoute{fmt.Errorf("lg: bad route %q: %w", ar.Prefix, err)}
		}
		routes = append(routes, r)
	}
	return routes, pageInfo{
		routes: len(resp.Routes), page: resp.Page, pageSize: resp.PageSize,
		totalPages: resp.TotalPages, totalCount: resp.TotalCount,
	}, nil
}

// scan reads body onto d.routes and d.info if it has the shape the
// file comment lists, and reports whether it did. When it did not,
// d.routes may hold part of the page beyond what it held before.
func (d *listingDecoder) scan(body []byte) bool {
	d.b, d.i, d.info, d.headerRoutes = body, 0, pageInfo{}, 0
	base := len(d.routes)
	if !d.eat('{') {
		return false
	}
	var seen uint16
	for more := !d.eat('}'); more; {
		var ok bool
		switch d.key(pageFields, &seen) {
		case pageRoutes:
			d.presize(seen)
			ok = d.routeList()
		case pagePage:
			ok = d.intField(&d.info.page)
		case pagePageSize:
			ok = d.intField(&d.info.pageSize)
		case pageTotalPages:
			ok = d.intField(&d.info.totalPages)
		case pageTotalCount:
			ok = d.intField(&d.info.totalCount)
		}
		if more, ok = d.next(ok, '}'); !ok {
			return false
		}
	}
	d.ws()
	d.info.routes = len(d.routes) - base
	return d.i == len(d.b)
}

// presize, called as the routes member starts with the members seen
// so far, sizes the listing from a header that came before it.
func (d *listingDecoder) presize(seen uint16) {
	const header = 1<<pagePage | 1<<pagePageSize | 1<<pageTotalCount
	if seen&header != header {
		return
	}
	if d.info.page == 0 {
		d.routes = slices.Grow(d.routes, min(d.info.totalCount, maxPresize))
	}
	d.headerRoutes = min(d.info.pageSize, d.info.totalCount, MaxPageSize)
}

// routeList reads the routes member: null, or an array of routes.
func (d *listingDecoder) routeList() bool {
	if d.null() {
		return true
	}
	if !d.eat('[') {
		return false
	}
	for more := !d.eat(']'); more; {
		ok := d.route()
		if more, ok = d.next(ok, ']'); !ok {
			return false
		}
	}
	return true
}

// route reads one route object onto d.routes.
func (d *listingDecoder) route() bool {
	if !d.eat('{') {
		return false
	}
	d.routes = append(d.routes, bgp.Route{})
	r := &d.routes[len(d.routes)-1]
	var seen uint16
	for more := !d.eat('}'); more; {
		var ok bool
		switch d.key(routeFields, &seen) {
		case routeNetwork:
			var text []byte
			if text, ok = d.str(); ok {
				r.Prefix, ok = parsePrefix(text)
			}
		case routeGateway:
			ok = d.gateway(&r.NextHop)
		case routeASPath:
			r.ASPath, ok = list(d, &d.paths, (*listingDecoder).u32)
		case routeMED:
			r.MED, ok = d.u32()
		case routeLocalPref:
			r.LocalPref, ok = d.u32()
		case routeOrigin:
			var v uint64
			v, ok = d.integer(uint64(bgp.OriginIncomplete))
			r.Origin = bgp.Origin(v)
		case routeCommunities:
			r.Communities, ok = list(d, &d.comms, (*listingDecoder).community)
		case routeExtCommunities:
			r.ExtCommunities, ok = list(d, &d.exts, (*listingDecoder).extCommunity)
		case routeLargeCommunities:
			r.LargeCommunities, ok = list(d, &d.larges, (*listingDecoder).largeCommunity)
		}
		if more, ok = d.next(ok, '}'); !ok {
			return false
		}
	}
	// decodeRoute appends the three community lists element by
	// element, so an empty one comes out nil.
	r.Communities, r.ExtCommunities, r.LargeCommunities = orNil(r.Communities), orNil(r.ExtCommunities), orNil(r.LargeCommunities)
	const both = 1<<routeNetwork | 1<<routeGateway
	return seen&both == both
}

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// gateway reads a gateway's text into dst through the memo.
func (d *listingDecoder) gateway(dst *netip.Addr) bool {
	text, ok := d.str()
	if !ok {
		return false
	}
	if !d.gw.IsValid() || !bytes.Equal(text, d.gwText) {
		gw, err := netip.ParseAddr(string(text))
		if err != nil {
			return false
		}
		d.gw, d.gwText = gw, append(d.gwText[:0], text...)
	}
	*dst = d.gw
	return true
}

// list reads an attribute list — null, or an array of what elem reads —
// into t's shared storage.
func list[T comparable](d *listingDecoder, t *attrTable[T], elem func(*listingDecoder) (T, bool)) ([]T, bool) {
	if d.null() {
		return nil, true
	}
	if !d.eat('[') {
		return nil, false
	}
	from, vals := d.i-1, t.scratch[:0]
	for more := !d.eat(']'); more; {
		v, ok := elem(d)
		if vals == nil {
			vals = make([]T, 0, minAttrScratch)
		}
		vals = append(vals, v)
		if more, ok = d.next(ok, ']'); !ok {
			t.scratch = vals[:0]
			return nil, false
		}
	}
	t.scratch = vals[:0]
	if len(vals) == 0 {
		return []T{}, true
	}
	return t.share(maphash.Bytes(d.seed, d.b[from:d.i]), vals, d.headerRoutes), true
}

// The element readers. Every community flavour is decimal fields joined
// by colons, the only text bgp's parsers accept, read in one pass over
// the string.

func (d *listingDecoder) u32() (uint32, bool) {
	v, ok := d.integer(1<<32 - 1)
	return uint32(v), ok
}

func (d *listingDecoder) community() (bgp.Community, bool) {
	if !d.eat('"') {
		return 0, false
	}
	asn, i, ok := uintField(d.b, d.i, ':', 0xFFFF)
	if !ok {
		return 0, false
	}
	value, i, ok := uintField(d.b, i, '"', 0xFFFF)
	d.i = i
	return bgp.NewCommunity(uint16(asn), uint16(value)), ok
}

func (d *listingDecoder) extCommunity() (bgp.ExtendedCommunity, bool) {
	var f [3]uint32
	ok := d.fields(f[:], 0xFF, 0xFFFF, 0xFFFFFFFF)
	return bgp.NewTwoOctetASExtended(byte(f[0]), uint16(f[1]), f[2]), ok
}

func (d *listingDecoder) largeCommunity() (bgp.LargeCommunity, bool) {
	var f [3]uint32
	ok := d.fields(f[:], 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
	return bgp.LargeCommunity{Global: f[0], Local1: f[1], Local2: f[2]}, ok
}

// fields reads a string of len(dst) decimal fields joined by colons,
// field k at most max[k], into dst.
func (d *listingDecoder) fields(dst []uint32, max ...uint32) bool {
	if !d.eat('"') {
		return false
	}
	i := d.i
	for k := range dst {
		end := byte(':')
		if k == len(dst)-1 {
			end = '"'
		}
		var ok bool
		if dst[k], i, ok = uintField(d.b, i, end, max[k]); !ok {
			return false
		}
	}
	d.i = i
	return true
}

// uintField reads decimal digits at b[i:] up to the byte end and
// returns their value and the offset past end; ok is false if that is
// not what is there or the value exceeds max.
func uintField(b []byte, i int, end byte, max uint32) (v uint32, next int, ok bool) {
	n, from := uint64(0), i
	for ; i < len(b) && isDigit(b[i]) && n <= uint64(max); i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	if i == from || i >= len(b) || b[i] != end || n > uint64(max) {
		return 0, 0, false
	}
	return uint32(n), i + 1, true
}

// maxPrefixText is the longest text netip.Prefix.AppendTo writes.
const maxPrefixText = len("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128")

// parsePrefix reads text spelt exactly as netip.Prefix.AppendTo writes
// it, IPv4 or IPv6, and nothing else. It confirms what it read by
// writing the prefix back and comparing, so any text it accepts means
// what netip.ParsePrefix reads; other spellings of a prefix (upper-case
// hex, a leading zero, an uncompressed run of zero groups) leave the
// shape.
func parsePrefix(text []byte) (netip.Prefix, bool) {
	if len(text) > maxPrefixText {
		return netip.Prefix{}, false
	}
	var addr netip.Addr
	n := 0
	if ip4, m, ok := parseIPv4(text); ok {
		addr, n = netip.AddrFrom4(ip4), m
	} else if ip6, m, ok := parseIPv6(text); ok {
		addr, n = netip.AddrFrom16(ip6), m
	} else {
		return netip.Prefix{}, false
	}
	if n == len(text) || text[n] != '/' {
		return netip.Prefix{}, false
	}
	bits, ok := decimal(text[n+1:])
	p := netip.PrefixFrom(addr, bits)
	var buf [maxPrefixText]byte
	if !ok || !p.IsValid() || !bytes.Equal(p.AppendTo(buf[:0]), text) {
		return netip.Prefix{}, false
	}
	return p, true
}

// decimal reads b, one to three digits, as a number.
func decimal(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 3 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if !isDigit(ch) {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

// parseIPv4 reads four dot-separated decimal octets at the start of b
// and returns them and how many bytes they took.
func parseIPv4(b []byte) (ip [4]byte, n int, ok bool) {
	for k := range ip {
		if k > 0 {
			if n == len(b) || b[n] != '.' {
				return ip, 0, false
			}
			n++
		}
		from, v := n, 0
		for ; n < len(b) && n-from < 3 && isDigit(b[n]); n++ {
			v = v*10 + int(b[n]-'0')
		}
		if n == from || v > 0xFF {
			return ip, 0, false
		}
		ip[k] = byte(v)
	}
	return ip, n, true
}

// parseIPv6 reads, at the start of b and up to a slash, colon-separated
// groups of lower-case hex digits, at most one "::" standing for a run
// of zero groups, and optionally a dotted IPv4 tail for the last 32
// bits; it returns the address and how many bytes it took.
func parseIPv6(b []byte) (ip [16]byte, n int, ok bool) {
	ellipsis, i := -1, 0 // where "::" stands in ip, and how much of ip is read
	if len(b) >= 2 && b[0] == ':' && b[1] == ':' {
		ellipsis, n = 0, 2
	}
	for n < len(b) && b[n] != '/' {
		from, v := n, 0
		for ; n < len(b) && n-from < 4; n++ {
			h := hexDigit(b[n])
			if h < 0 {
				break
			}
			v = v<<4 | h
		}
		if n < len(b) && b[n] == '.' {
			v4, m, ok := parseIPv4(b[from:])
			if !ok || i > len(ip)-len(v4) {
				return ip, 0, false
			}
			i += copy(ip[i:], v4[:])
			n = from + m
			break
		}
		if n == from || i == len(ip) {
			return ip, 0, false
		}
		ip[i], ip[i+1] = byte(v>>8), byte(v)
		i += 2
		if n == len(b) || b[n] == '/' {
			break
		}
		if b[n] != ':' {
			return ip, 0, false
		}
		if n++; n < len(b) && b[n] == ':' {
			if ellipsis >= 0 {
				return ip, 0, false
			}
			ellipsis, n = i, n+1
		} else if n == len(b) || b[n] == '/' {
			return ip, 0, false
		}
	}
	if ellipsis < 0 {
		return ip, n, i == len(ip)
	}
	shift := len(ip) - i
	copy(ip[ellipsis+shift:], ip[ellipsis:i])
	clear(ip[ellipsis : ellipsis+shift])
	return ip, n, true
}

// hexDigit is the value of a lower-case hex digit, or -1.
func hexDigit(ch byte) int {
	switch {
	case isDigit(ch):
		return int(ch - '0')
	case 'a' <= ch && ch <= 'f':
		return int(ch-'a') + 10
	}
	return -1
}

func (d *listingDecoder) intField(dst *int) bool {
	v, ok := d.integer(maxPageField)
	*dst = int(v)
	return ok
}

// The tokens.

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

// plainStringByte marks the bytes a string in the shape can hold:
// printable ASCII but the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for ch := 0x20; ch < 0x7f; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// ws skips white space.
func (d *listingDecoder) ws() {
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return
		}
	}
}

// eat skips white space and consumes ch if it comes next.
func (d *listingDecoder) eat(ch byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ch {
		d.i++
		return true
	}
	return false
}

// null skips white space and consumes a null if it comes next.
func (d *listingDecoder) null() bool {
	d.ws()
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// next, called once a member or element of a container closed by end
// has been read (read is false if it could not be), consumes the comma
// or end that follows and reports whether another one comes; ok is
// false when the body has left the shape.
func (d *listingDecoder) next(read bool, end byte) (more, ok bool) {
	switch {
	case !read:
		return false, false
	case d.eat(','):
		return true, true
	}
	return false, d.eat(end)
}

// str reads a string and returns its text.
func (d *listingDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	b, from := d.b, d.i
	i := from
	for i < len(b) && plainStringByte[b[i]] {
		i++
	}
	if i >= len(b) || b[i] != '"' {
		return nil, false
	}
	d.i = i + 1
	return b[from:i], true
}

// key reads a member name and its colon and returns the name's index
// in names, or -1 if it is none of them or seen already holds it.
func (d *listingDecoder) key(names []string, seen *uint16) int {
	text, ok := d.str()
	if !ok || !d.eat(':') {
		return -1
	}
	for k, name := range names {
		if string(text) == name {
			if *seen&(1<<k) != 0 {
				return -1
			}
			*seen |= 1 << k
			return k
		}
	}
	return -1
}

// integer reads an integer of plain digits with no leading zero, at
// most max (≤ 2^60, so that v*10 cannot wrap).
func (d *listingDecoder) integer(max uint64) (uint64, bool) {
	d.ws()
	b, i := d.b, d.i
	if i >= len(b) || !isDigit(b[i]) {
		return 0, false
	}
	if b[i] == '0' { // a digit after it leaves the shape at next
		d.i = i + 1
		return 0, true
	}
	var v uint64
	for ; i < len(b) && isDigit(b[i]); i++ {
		if v = v*10 + uint64(b[i]-'0'); v > max {
			return 0, false
		}
	}
	d.i = i
	return v, true
}
