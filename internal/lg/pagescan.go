package lg

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"net/netip"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ixplight/internal/bgp"
)

// The client's half of the routes wire shape: a scanner that reads one
// page body (RoutesResponse as JSON) straight into bgp.Route values,
// with no APIRoute, no string per community and no reflection. It is
// written against encoding/json's behaviour, not against the JSON
// grammar alone, because the collection has always accepted whatever
// json.Unmarshal + DecodeRoute accept:
//
//   - object keys match field names exactly or under json's case fold,
//     after unquoting; unknown keys are skipped but must be valid JSON;
//   - a later duplicate key decodes over the earlier value the way
//     Unmarshal does: scalars are overwritten, null leaves a scalar
//     alone and clears a slice, an array is decoded element by element
//     over what the slot's backing array still holds;
//   - a value of the wrong JSON type, a number that does not fit its
//     field, malformed or truncated input are all the retryable
//     bad_json, whatever else the page contains;
//   - a route whose text does not parse (DecodeRoute's errors) fails
//     the listing only if the whole body was valid JSON.
//
// decodePageOracle in pagescan_test.go is the old decode kept as the
// differential oracle; FuzzRoutesPageDecode holds the two together.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// jsonCursor is a validating cursor over one JSON text.
type jsonCursor struct {
	b     []byte
	i     int
	depth int
}

func (c *jsonCursor) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", c.i, fmt.Sprintf(format, args...))
}

// peek skips white space and returns the byte at the cursor.
func (c *jsonCursor) peek() (byte, error) {
	for c.i < len(c.b) {
		switch ch := c.b[c.i]; ch {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return ch, nil
		}
	}
	return 0, errUnexpectedEnd
}

// enter opens an array or object at the cursor.
func (c *jsonCursor) enter() error {
	if c.depth++; c.depth > maxJSONDepth {
		return c.errorf("exceeded max depth")
	}
	c.i++
	return nil
}

// more, called after an element of a container closed by end, reports
// whether another element follows; when none does the container is
// left.
func (c *jsonCursor) more(end byte) (bool, error) {
	ch, err := c.peek()
	if err != nil {
		return false, err
	}
	c.i++
	switch ch {
	case ',':
		return true, nil
	case end:
		c.depth--
		return false, nil
	}
	c.i--
	return false, c.errorf("invalid character %q after a value", ch)
}

// empty reports whether the container just entered closes at once.
func (c *jsonCursor) empty(end byte) (bool, error) {
	ch, err := c.peek()
	if err != nil || ch != end {
		return false, err
	}
	c.i++
	c.depth--
	return true, nil
}

// plainStringByte marks the bytes a string literal can hold that need
// no unquoting.
var plainStringByte = func() (t [256]bool) {
	for ch := 0x20; ch < 0x80; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// str scans the string literal whose opening quote is at the cursor
// and returns the bytes between the quotes; plain reports that they are
// the string's value as they stand (ASCII, no escapes).
func (c *jsonCursor) str() (raw []byte, plain bool, err error) {
	b, start := c.b, c.i+1
	i, plain := start, true
	for {
		for i < len(b) && plainStringByte[b[i]] {
			i++
		}
		if i >= len(b) {
			c.i = i
			return nil, false, errUnexpectedEnd
		}
		switch ch := b[i]; {
		case ch == '"':
			c.i = i + 1
			return b[start:i], plain, nil
		case ch == '\\':
			plain = false
			if i++; i >= len(b) {
				c.i = i
				return nil, false, errUnexpectedEnd
			}
			switch b[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) {
						c.i = len(b)
						return nil, false, errUnexpectedEnd
					}
					if !isHex(b[i+k]) {
						c.i = i + k
						return nil, false, c.errorf("invalid character %q in \\u escape", b[i+k])
					}
				}
				i += 4
			default:
				c.i = i
				return nil, false, c.errorf("invalid character %q in string escape", b[i])
			}
			i++
		case ch < 0x20:
			c.i = i
			return nil, false, c.errorf("invalid character %q in string literal", ch)
		default: // ≥ 0x80: json takes any bytes and repairs them on unquote
			plain = false
			i++
		}
	}
}

func isHex(ch byte) bool {
	return '0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'f' || 'A' <= ch && ch <= 'F'
}

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

// number scans the number literal at the cursor.
func (c *jsonCursor) number() ([]byte, error) {
	b, start := c.b, c.i
	i := start
	digits := func() bool {
		from := i
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i > from
	}
	fail := func() ([]byte, error) {
		if c.i = i; i >= len(b) {
			return nil, errUnexpectedEnd
		}
		return nil, c.errorf("invalid character %q in numeric literal", b[i])
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return fail()
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return fail()
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return fail()
		}
	}
	c.i = i
	return b[start:i], nil
}

// literal consumes word (null, true or false) at the cursor.
func (c *jsonCursor) literal(word string) error {
	if !bytes.HasPrefix(c.b[c.i:], []byte(word)) {
		return c.errorf("invalid literal, want %s", word)
	}
	c.i += len(word)
	return nil
}

// null consumes a null at the cursor, if that is what ch (the byte at
// the cursor) starts.
func (c *jsonCursor) null(ch byte) (bool, error) {
	if ch != 'n' {
		return false, nil
	}
	return true, c.literal("null")
}

// skipValue validates and skips the value at the cursor.
func (c *jsonCursor) skipValue() error {
	ch, err := c.peek()
	if err != nil {
		return err
	}
	switch {
	case ch == '{':
		return c.object(func([]byte, bool) error { return c.skipValue() })
	case ch == '[':
		return c.array(func(int) error { return c.skipValue() })
	case ch == '"':
		_, _, err = c.str()
	case ch == '-' || isDigit(ch):
		_, err = c.number()
	case ch == 't':
		err = c.literal("true")
	case ch == 'f':
		err = c.literal("false")
	case ch == 'n':
		err = c.literal("null")
	default:
		err = c.errorf("invalid character %q looking for beginning of value", ch)
	}
	return err
}

// object walks the object at the cursor, calling member for every key
// (the bytes between its quotes, and whether they are plain) with the
// cursor on the member's value, which member must consume.
func (c *jsonCursor) object(member func(key []byte, plain bool) error) error {
	if err := c.enter(); err != nil {
		return err
	}
	if done, err := c.empty('}'); done || err != nil {
		return err
	}
	for {
		ch, err := c.peek()
		if err != nil {
			return err
		}
		if ch != '"' {
			return c.errorf("invalid character %q looking for beginning of object key string", ch)
		}
		key, plain, err := c.str()
		if err != nil {
			return err
		}
		if ch, err = c.peek(); err != nil {
			return err
		}
		if ch != ':' {
			return c.errorf("invalid character %q after object key", ch)
		}
		c.i++
		if _, err = c.peek(); err != nil {
			return err
		}
		if err = member(key, plain); err != nil {
			return err
		}
		if more, err := c.more('}'); !more {
			return err
		}
	}
}

// array walks the array at the cursor, calling elem with the cursor on
// each element, which elem must consume.
func (c *jsonCursor) array(elem func(k int) error) error {
	if err := c.enter(); err != nil {
		return err
	}
	if done, err := c.empty(']'); done || err != nil {
		return err
	}
	for k := 0; ; k++ {
		if _, err := c.peek(); err != nil {
			return err
		}
		if err := elem(k); err != nil {
			return err
		}
		if more, err := c.more(']'); !more {
			return err
		}
	}
}

// appendUnquoted appends the value of a string literal's contents the
// way encoding/json unquotes it: escapes resolved, unpaired surrogates
// and invalid UTF-8 replaced by U+FFFD. raw has passed jsonCursor.str.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch ch := raw[i]; {
		case ch == '\\':
			i++
			switch raw[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						r2 = hex4(raw[i+3:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // \\ \/ \"
				dst = append(dst, raw[i])
			}
			i++
		case ch < utf8.RuneSelf:
			dst = append(dst, ch)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 decodes four hex digits (already validated).
func hex4(b []byte) rune {
	var r rune
	for _, ch := range b[:4] {
		switch {
		case isDigit(ch):
			ch -= '0'
		case 'a' <= ch && ch <= 'f':
			ch -= 'a' - 10
		default:
			ch -= 'A' - 10
		}
		r = r<<4 | rune(ch)
	}
	return r
}

// appendFolded appends encoding/json's case fold of a key: ASCII upper
// case, every other rune the smallest of its simple-fold orbit (so the
// Kelvin sign matches k and the long s matches s).
func appendFolded(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if ch := key[i]; ch < utf8.RuneSelf {
			if 'a' <= ch && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			dst = append(dst, ch)
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += size
	}
	return dst
}

// fieldSet is the JSON member names of one struct, with their folds.
type fieldSet struct{ names, folded []string }

func newFieldSet(names ...string) fieldSet {
	fs := fieldSet{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(appendFolded(nil, []byte(n))))
	}
	return fs
}

// Field indices: the members of RoutesResponse and of APIRoute.
const (
	pageRoutes = iota
	pagePage
	pagePageSize
	pageTotalPages
	pageTotalCount
)

const (
	routeNetwork = iota
	routeGateway
	routeASPath
	routeCommunities
	routeExtCommunities
	routeLargeCommunities
	routeFilterReason
)

var (
	pageFields  = newFieldSet("routes", "page", "page_size", "total_pages", "total_count")
	routeFields = newFieldSet("network", "gateway", "as_path", "communities", "ext_communities", "large_communities", "filter_reason")
)

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

func (t *attrTable[T]) share(textHash uint64, vals []T) []T {
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
		t.shared = make(map[uint64][]T)
	}
	t.shared[textHash] = v
	return v
}

// slotKey names one field of one route of the page being decoded.
type slotKey struct {
	route int
	field int
}

// badText records why a slot's current text does not parse. For an
// array field at[k] marks the elements that do not (bad elements stay
// addressable because a later null element keeps what the slot held).
type badText struct {
	err  error
	text string // the network text, for the error message
	at   []bool
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
	gwSet  bool
	gw     netip.Addr
	gwErr  error

	text []byte // unquoting scratch

	// Page state. routes[base:] are the page's routes; high is how many
	// the page has ever held at once, so that a repeated "routes" key
	// decodes over the earlier elements as json does. badField has one
	// bit per route field whose current text does not parse, bad the
	// details of those that were ever given a text.
	cur      jsonCursor
	routes   []bgp.Route
	base     int
	high     int
	badField []uint8
	bad      map[slotKey]*badText
	info     pageInfo
}

func newListingDecoder() *listingDecoder {
	return &listingDecoder{seed: maphash.MakeSeed()}
}

// errBadRoute marks DecodeRoute's kind of failure: valid JSON whose
// route text does not parse. It is not retryable.
type errBadRoute struct{ err error }

func (e *errBadRoute) Error() string { return e.err.Error() }
func (e *errBadRoute) Unwrap() error { return e.err }

// decodePage decodes one page body, appending its routes to routes.
// A JSON-level failure is returned as is (the caller's bad_json); a
// route that does not parse as *errBadRoute. On any error routes is
// returned unextended.
func (d *listingDecoder) decodePage(body []byte, routes []bgp.Route) ([]bgp.Route, pageInfo, error) {
	d.cur = jsonCursor{b: body}
	d.routes, d.base, d.high = routes, len(routes), 0
	d.badField = d.badField[:0]
	d.bad = nil
	d.info = pageInfo{}
	err := d.page()
	routes, d.routes, d.cur.b = d.routes, nil, nil
	if err != nil {
		return routes[:d.base], pageInfo{}, err
	}
	for k, bits := range d.badField {
		if bits != 0 {
			return routes[:d.base], pageInfo{}, &errBadRoute{d.badRouteError(k, &routes[d.base+k], bits)}
		}
	}
	d.info.routes = len(routes) - d.base
	return routes, d.info, nil
}

// page decodes the top-level value: a RoutesResponse object, or null.
func (d *listingDecoder) page() error {
	c := &d.cur
	ch, err := c.peek()
	if err != nil {
		return err
	}
	if isNull, err := c.null(ch); isNull {
		if err != nil {
			return err
		}
	} else if ch != '{' {
		return c.errorf("cannot decode a page from a value starting with %q", ch)
	} else if err := c.object(d.pageMember); err != nil {
		return err
	}
	if ch, err := c.peek(); err == nil {
		return c.errorf("invalid character %q after top-level value", ch)
	}
	return nil
}

// field resolves an object key to its index in fs, or -1.
func (d *listingDecoder) field(fs *fieldSet, key []byte, plain bool) int {
	if !plain {
		d.text = appendUnquoted(d.text[:0], key)
		key = d.text
	}
	for i, name := range fs.names {
		if string(key) == name {
			return i
		}
	}
	var buf [32]byte
	folded := appendFolded(buf[:0], key)
	for i, name := range fs.folded {
		if string(folded) == name {
			return i
		}
	}
	return -1
}

func (d *listingDecoder) pageMember(key []byte, plain bool) error {
	switch d.field(&pageFields, key, plain) {
	case pageRoutes:
		return d.routesArray()
	case pagePage:
		return d.intField(&d.info.page)
	case pagePageSize:
		return d.intField(&d.info.pageSize)
	case pageTotalPages:
		return d.intField(&d.info.totalPages)
	case pageTotalCount:
		return d.intField(&d.info.totalCount)
	}
	return d.cur.skipValue()
}

// intField decodes a number into an int field; null leaves it alone.
func (d *listingDecoder) intField(dst *int) error {
	c := &d.cur
	ch := c.b[c.i]
	if isNull, err := c.null(ch); isNull {
		return err
	}
	if ch != '-' && !isDigit(ch) {
		return c.errorf("cannot decode a value starting with %q into an integer", ch)
	}
	num, err := c.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return c.errorf("cannot decode number %s into an integer", num)
	}
	*dst = int(v)
	return nil
}

// resetRoutes drops the page's routes and everything remembered about
// them — what null and [] do to a slice's backing array.
func (d *listingDecoder) resetRoutes() {
	d.routes, d.badField = d.routes[:d.base], d.badField[:0]
	d.high, d.bad = 0, nil
}

// routesArray decodes the "routes" member.
func (d *listingDecoder) routesArray() error {
	c := &d.cur
	ch := c.b[c.i]
	if isNull, err := c.null(ch); isNull {
		d.resetRoutes()
		return err
	}
	if ch != '[' {
		return c.errorf("cannot decode a value starting with %q into routes", ch)
	}
	n := 0
	err := c.array(func(k int) error {
		// Element k: what an earlier "routes" array of this page left
		// there, or a new zero route (whose empty network and gateway
		// do not parse).
		if k < d.high {
			d.routes, d.badField = d.routes[:d.base+k+1], d.badField[:k+1]
		} else {
			d.routes = append(d.routes[:d.base+k], bgp.Route{})
			d.badField = append(d.badField[:k], 1<<routeNetwork|1<<routeGateway) // "" parses as neither
			d.high = k + 1
		}
		n = k + 1
		ch := c.b[c.i]
		if isNull, err := c.null(ch); isNull {
			return err
		}
		if ch != '{' {
			return c.errorf("cannot decode a value starting with %q into a route", ch)
		}
		return c.object(func(key []byte, plain bool) error { return d.routeMember(k, key, plain) })
	})
	if err != nil {
		return err
	}
	if n == 0 {
		d.resetRoutes()
	}
	d.routes, d.badField = d.routes[:d.base+n], d.badField[:n]
	return nil
}

// setBad records (or, with a nil why, forgets) which of a slot's text
// does not parse; the route is bad only if some of it is in sight.
func (d *listingDecoder) setBad(k, field int, why *badText, inSight bool) {
	slot := slotKey{k, field}
	if d.badField[k] &^= 1 << field; inSight {
		d.badField[k] |= 1 << field
	}
	if why == nil {
		delete(d.bad, slot)
		return
	}
	if d.bad == nil {
		d.bad = make(map[slotKey]*badText)
	}
	d.bad[slot] = why
}

// stringValue reads a string or null member value and returns the
// string's text; ok is false for null, which leaves a string field
// alone.
func (d *listingDecoder) stringValue(what string) (text []byte, ok bool, err error) {
	c := &d.cur
	ch := c.b[c.i]
	if isNull, err := c.null(ch); isNull {
		return nil, false, err
	}
	text, err = d.elemText(what)
	return text, err == nil, err
}

func (d *listingDecoder) routeMember(k int, key []byte, plain bool) error {
	field := d.field(&routeFields, key, plain)
	r := &d.routes[d.base+k]
	var err error
	switch field {
	case routeNetwork:
		text, ok, err := d.stringValue("a network")
		if !ok {
			return err
		}
		if r.Prefix, err = netip.ParsePrefix(string(text)); err != nil {
			d.setBad(k, field, &badText{err: err, text: string(text)}, true)
			return nil
		}
		d.setBad(k, field, nil, false)
	case routeGateway:
		text, ok, err := d.stringValue("a gateway")
		if !ok {
			return err
		}
		if !d.gwSet || !bytes.Equal(text, d.gwText) {
			d.gw, d.gwErr = netip.ParseAddr(string(text))
			d.gwText, d.gwSet = append(d.gwText[:0], text...), true
		}
		if r.NextHop = d.gw; d.gwErr != nil {
			d.setBad(k, field, &badText{err: d.gwErr}, true)
			return nil
		}
		d.setBad(k, field, nil, false)
	case routeASPath:
		var path []uint32
		path, err = decodeAttr(d, &d.paths, r.ASPath, k, field, nil, (*listingDecoder).asnElem)
		r.ASPath = path
	// DecodeRoute appends the three community lists element by
	// element, so an empty one comes out nil.
	case routeCommunities:
		if r.Communities, err = decodeAttr(d, &d.comms, r.Communities, k, field, errEmptyCommunity, (*listingDecoder).communityElem); len(r.Communities) == 0 {
			r.Communities = nil
		}
	case routeExtCommunities:
		if r.ExtCommunities, err = decodeAttr(d, &d.exts, r.ExtCommunities, k, field, errEmptyExtCommunity, (*listingDecoder).extCommunityElem); len(r.ExtCommunities) == 0 {
			r.ExtCommunities = nil
		}
	case routeLargeCommunities:
		if r.LargeCommunities, err = decodeAttr(d, &d.larges, r.LargeCommunities, k, field, errEmptyLargeCommunity, (*listingDecoder).largeCommunityElem); len(r.LargeCommunities) == 0 {
			r.LargeCommunities = nil
		}
	case routeFilterReason:
		_, _, err = d.stringValue("a filter reason")
	default:
		err = d.cur.skipValue()
	}
	return err
}

// What DecodeRoute says of the empty string a null element leaves in
// a new position of a community list.
var (
	_, errEmptyCommunity      = bgp.ParseCommunity("")
	_, errEmptyExtCommunity   = bgp.ParseExtendedCommunity("")
	_, errEmptyLargeCommunity = bgp.ParseLargeCommunity("")
)

// decodeAttr decodes the array (or null) at the cursor into one
// attribute slice of route k, with encoding/json's slice semantics: cur
// is the slot's value so far, and its spare capacity is what a shorter
// array left behind, which a null element of a later, longer one brings
// back. elem reads one non-null element and reports either its value,
// or why its text does not parse (bad), or a JSON-level error; zeroBad
// is why the zero element — what null leaves in a position never
// written — does not parse, if it does not. A slot decoded once (every
// slot of every page a looking glass really sends) takes none of those
// turns: its elements go to scratch and from there to the listing's
// shared storage.
func decodeAttr[T comparable](d *listingDecoder, t *attrTable[T], cur []T, k, field int, zeroBad error,
	elem func(*listingDecoder) (v T, bad, err error)) ([]T, error) {
	c := &d.cur
	ch := c.b[c.i]
	if isNull, err := c.null(ch); isNull {
		d.setBad(k, field, nil, false)
		return nil, err
	}
	if ch != '[' {
		return cur, c.errorf("cannot decode a value starting with %q into a list", ch)
	}
	from := c.i
	held := cur[:cap(cur)]
	var heldBad *badText
	if len(held) > 0 {
		heldBad = d.bad[slotKey{k, field}]
	}
	vals := t.scratch[:0]
	var why *badText
	markBad := func(i int, err error) {
		if why == nil {
			why = &badText{err: err}
		}
		why.at = append(why.at, make([]bool, i+1-len(why.at))...)
		why.at[i] = true
	}
	err := c.array(func(i int) error {
		var v T
		ch := c.b[c.i]
		if isNull, err := c.null(ch); isNull {
			if err != nil {
				return err
			}
			switch {
			case i < len(held):
				if v = held[i]; heldBad != nil && i < len(heldBad.at) && heldBad.at[i] {
					markBad(i, heldBad.err)
				}
			case zeroBad != nil:
				markBad(i, zeroBad)
			}
		} else {
			var bad error
			if v, bad, err = elem(d); err != nil {
				return err
			} else if bad != nil {
				markBad(i, bad)
			}
		}
		vals = append(vals, v)
		return nil
	})
	t.scratch = vals[:0]
	if err != nil {
		return cur, err
	}
	n, visibleBad := len(vals), why != nil
	if n == 0 {
		d.setBad(k, field, nil, false)
		return []T{}, nil
	}
	if n >= len(held) {
		d.setBad(k, field, why, visibleBad)
		return t.share(maphash.Bytes(d.seed, c.b[from:c.i]), vals), nil
	}
	// A shorter array over a longer one: the tail stays in the backing
	// array, out of sight, as it does in json's.
	kept := make([]T, len(held))
	copy(kept, vals)
	copy(kept[n:], held[n:])
	if heldBad != nil {
		for i := n; i < len(heldBad.at); i++ {
			if heldBad.at[i] {
				markBad(i, heldBad.err)
			}
		}
	}
	d.setBad(k, field, why, visibleBad)
	return kept[:n], nil
}

// asnElem reads the number at the cursor as an AS number.
func (d *listingDecoder) asnElem() (asn uint32, bad, err error) {
	c := &d.cur
	ch := c.b[c.i]
	// Plain digits closed by a comma or bracket, in one pass; a sign,
	// fraction, exponent, leading zero or overflow starts over below.
	if '1' <= ch && ch <= '9' {
		n, i := uint64(0), c.i
		for ; i < len(c.b) && isDigit(c.b[i]) && n <= 1<<32-1; i++ {
			n = n*10 + uint64(c.b[i]-'0')
		}
		if i < len(c.b) && (c.b[i] == ',' || c.b[i] == ']') && n <= 1<<32-1 {
			c.i = i
			return uint32(n), nil, nil
		}
	}
	if ch != '-' && !isDigit(ch) {
		return 0, nil, c.errorf("cannot decode a value starting with %q into an AS number", ch)
	}
	num, err := c.number()
	if err != nil {
		return 0, nil, err
	}
	v, ok := parseUint(num, 1<<32-1)
	if !ok {
		return 0, nil, c.errorf("cannot decode number %s into an AS number", num)
	}
	return uint32(v), nil, nil
}

// uint16Field reads decimal digits at b[i:] up to the byte end and
// returns their value and the offset past end; ok is false if that is
// not what is there or the value exceeds 16 bits.
func uint16Field(b []byte, i int, end byte) (v uint16, next int, ok bool) {
	n, from := uint32(0), i
	for ; i < len(b) && isDigit(b[i]) && n <= 0xFFFF; i++ {
		n = n*10 + uint32(b[i]-'0')
	}
	if i == from || i >= len(b) || b[i] != end || n > 0xFFFF {
		return 0, 0, false
	}
	return uint16(n), i + 1, true
}

// parseUint is strconv.ParseUint(s, 10, …) bounded by max, for the
// inputs it accepts: one or more decimal digits.
func parseUint(s []byte, max uint64) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for _, ch := range s {
		if !isDigit(ch) {
			return 0, false
		}
		if v = v*10 + uint64(ch-'0'); v > max {
			return 0, false
		}
	}
	return v, true
}

// colonFields splits s at its colons into exactly len(dst) decimal
// fields bounded by max.
func colonFields(s []byte, dst []uint64, max ...uint64) bool {
	for i := range dst {
		part := s
		if i < len(dst)-1 {
			cut := bytes.IndexByte(s, ':')
			if cut < 0 {
				return false
			}
			part, s = s[:cut], s[cut+1:]
		}
		v, ok := parseUint(part, max[i])
		if !ok {
			return false
		}
		dst[i] = v
	}
	return true
}

// elemText reads the string element at the cursor.
func (d *listingDecoder) elemText(what string) ([]byte, error) {
	c := &d.cur
	if ch := c.b[c.i]; ch != '"' {
		return nil, c.errorf("cannot decode a value starting with %q into %s", ch, what)
	}
	raw, plain, err := c.str()
	if err == nil && !plain {
		d.text = appendUnquoted(d.text[:0], raw)
		raw = d.text
	}
	return raw, err
}

// The three community element readers parse the common spelling by
// hand and leave every other text to the bgp parser, whose verdict and
// error are the ones DecodeRoute would give.

func (d *listingDecoder) communityElem() (v bgp.Community, bad, err error) {
	// "asn:value" in one pass over the literal; anything else — an
	// escape, a third field, a number too large — starts over below.
	c := &d.cur
	if asn, i, ok := uint16Field(c.b, c.i+1, ':'); ok {
		if value, i, ok := uint16Field(c.b, i, '"'); ok {
			c.i = i
			return bgp.NewCommunity(asn, value), nil, nil
		}
	}
	text, err := d.elemText("a community")
	if err != nil {
		return 0, nil, err
	}
	var f [2]uint64
	if colonFields(text, f[:], 0xFFFF, 0xFFFF) {
		return bgp.NewCommunity(uint16(f[0]), uint16(f[1])), nil, nil
	}
	v, bad = bgp.ParseCommunity(string(text))
	return v, bad, nil
}

func (d *listingDecoder) extCommunityElem() (v bgp.ExtendedCommunity, bad, err error) {
	text, err := d.elemText("an extended community")
	if err != nil {
		return bgp.ExtendedCommunity{}, nil, err
	}
	var f [3]uint64
	if colonFields(text, f[:], 0xFF, 0xFFFF, 0xFFFFFFFF) {
		return bgp.NewTwoOctetASExtended(byte(f[0]), uint16(f[1]), uint32(f[2])), nil, nil
	}
	v, bad = bgp.ParseExtendedCommunity(string(text))
	return v, bad, nil
}

func (d *listingDecoder) largeCommunityElem() (v bgp.LargeCommunity, bad, err error) {
	text, err := d.elemText("a large community")
	if err != nil {
		return bgp.LargeCommunity{}, nil, err
	}
	var f [3]uint64
	if colonFields(text, f[:], 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) {
		return bgp.LargeCommunity{Global: uint32(f[0]), Local1: uint32(f[1]), Local2: uint32(f[2])}, nil, nil
	}
	v, bad = bgp.ParseLargeCommunity(string(text))
	return v, bad, nil
}

// badRouteError is DecodeRoute's error for page route k, whose bad
// fields are bits: the first that fails in DecodeRoute's order.
func (d *listingDecoder) badRouteError(k int, r *bgp.Route, bits uint8) error {
	network := r.Prefix.String()
	if bits&(1<<routeNetwork) != 0 {
		network = ""
		if why := d.bad[slotKey{k, routeNetwork}]; why != nil {
			network = why.text
		}
	}
	for _, field := range []int{routeNetwork, routeGateway, routeCommunities, routeExtCommunities, routeLargeCommunities} {
		if bits&(1<<field) == 0 {
			continue
		}
		var err error
		if why := d.bad[slotKey{k, field}]; why != nil {
			err = why.err
		} else if field == routeNetwork { // never given a text
			_, err = netip.ParsePrefix("")
		} else {
			_, err = netip.ParseAddr("")
		}
		return fmt.Errorf("lg: bad route %q: %w", network, err)
	}
	panic("lg: bad route without a bad field")
}
