// Binary snapshot codec: a hand-rolled, versioned, length-prefixed
// columnar format built for the pipeline's dominant cost — re-reading
// twelve weeks × eight IXPs of daily snapshots. The encoding exploits
// the redundancy BGP community studies keep re-measuring: AS paths,
// next hops and whole community sets repeat massively across routes,
// so each appears once in a deduplicated intern table and a route row
// is mostly small varint table indices. Decoding allocates one backing
// slab per element type, shared by all routes' slices, instead of one
// slice per route.
//
// Layout (all integers varint unless noted):
//
//	magic "IXPB" | uvarint version | uvarint header byte length
//	header: IXP, Date (strings), svarint FilteredCount, flags byte
//	        (bit0 Partial), Members, MemberErrors
//	routes: slice header, intern tables (next hops, AS paths,
//	        standard/extended/large community sets), then nine
//	        byte-length-prefixed columns: prefix (front-coded),
//	        next-hop index, AS-path index, origin (RLE), MED (RLE),
//	        local-pref (RLE), and the three community-set indices.
//
// Slice headers distinguish nil from empty (0 = nil, n+1 = len n) so
// round trips are exact under reflect.DeepEqual. The prefix column is
// front-coded: consecutive encoded prefixes share a common byte
// prefix (snapshots are Normalize-sorted by address, so neighbours
// agree on most leading bytes), and each row stores only the shared
// length and the differing suffix.
//
// Aliasing contract: routes decoded from this codec share their
// ASPath and community slices with every other route carrying the
// same interned value. Snapshot consumers (analysis, report, export)
// treat routes as immutable; anything that mutates a route must
// Clone() it first — the same rule rs.Server already follows.
package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"

	"ixplight/internal/bgp"
)

// binaryMagic opens every CodecBinary file: a file is a snapshot if and
// only if it starts with it, whatever it is called.
const binaryMagic = "IXPB"

// binaryVersion is the wire-format version. Bump it on any layout
// change; the golden-fixture test pins version drift.
const binaryVersion = 1

// errBinaryTruncated reports a snapshot cut short mid-structure.
var errBinaryTruncated = errors.New("collector: binary snapshot truncated")

// errBadMagic answers a file that does not open with binaryMagic. The
// files most likely to be offered are the ones earlier versions wrote,
// so the message says what became of them.
var errBadMagic = errors.New("collector: not a snapshot (bad magic): the json, json.gz and gob snapshot codecs were removed, so regenerate (ixpgen) or re-collect (collect) the dataset as binary")

// --- encoding ------------------------------------------------------------

// appendUvarint/appendSvarint are binary.AppendUvarint/AppendVarint
// under the local naming convention.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendSvarint(b []byte, v int64) []byte  { return binary.AppendVarint(b, v) }

// appendString writes a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendSliceHeader writes a nil-preserving slice length: 0 encodes a
// nil slice, n+1 a slice of length n.
func appendSliceHeader(b []byte, n int, isNil bool) []byte {
	if isNil {
		return appendUvarint(b, 0)
	}
	return appendUvarint(b, uint64(n)+1)
}

// interner deduplicates one kind of route attribute during encoding.
// Keys are the attribute's canonical byte encoding — which is also its
// table-body encoding, so keys[i] is entry i of the table as it goes
// on the wire; values are table indices in first-appearance order, so
// encoding is deterministic.
type interner struct {
	idx          map[string]uint64
	keys         []string
	hits, misses int64
}

func newInterner() *interner { return &interner{idx: make(map[string]uint64)} }

// intern returns the table index for key, recording whether the value
// was already present (the intern-table hit ratio telemetry).
func (it *interner) intern(key []byte) (idx uint64, isNew bool) {
	if i, ok := it.idx[string(key)]; ok {
		it.hits++
		return i, false
	}
	i, k := uint64(len(it.keys)), string(key)
	it.idx[k] = i
	it.keys = append(it.keys, k)
	it.misses++
	return i, true
}

// appendBinarySnapshot encodes s into buf.
func appendBinarySnapshot(buf []byte, s *Snapshot) []byte {
	buf = append(buf, binaryMagic...)
	buf = appendUvarint(buf, binaryVersion)

	// Header section, byte-length-prefixed so a reader can answer
	// Header() without touching the route block.
	hdr := appendHeaderSection(nil, s)
	buf = appendUvarint(buf, uint64(len(hdr)))
	buf = append(buf, hdr...)

	return appendBinaryRoutes(buf, s.Routes)
}

// appendHeaderSection encodes the header-section fields (everything
// but the route block) into hdr. The delta codec reuses this to carry
// day N's full header inside a delta file, so header layout changes
// stay in one place.
func appendHeaderSection(hdr []byte, s *Snapshot) []byte {
	hdr = appendString(hdr, s.IXP)
	hdr = appendString(hdr, s.Date)
	hdr = appendSvarint(hdr, int64(s.FilteredCount))
	var flags byte
	if s.Partial {
		flags |= 1
	}
	hdr = append(hdr, flags)
	hdr = appendSliceHeader(hdr, len(s.Members), s.Members == nil)
	for _, m := range s.Members {
		hdr = appendUvarint(hdr, uint64(m.ASN))
		hdr = appendString(hdr, m.Name)
		var mf byte
		if m.IPv4 {
			mf |= 1
		}
		if m.IPv6 {
			mf |= 2
		}
		hdr = append(hdr, mf)
	}
	hdr = appendSliceHeader(hdr, len(s.MemberErrors), s.MemberErrors == nil)
	for _, e := range s.MemberErrors {
		hdr = appendUvarint(hdr, uint64(e.ASN))
		hdr = appendString(hdr, e.Stage)
		hdr = appendString(hdr, e.Err)
		hdr = appendSvarint(hdr, int64(e.Attempts))
	}
	return hdr
}

// appendBinaryRoutes encodes the route block: intern tables first,
// then the columns.
func appendBinaryRoutes(buf []byte, routes []bgp.Route) []byte {
	// Pass 1: intern every repeated attribute, recording per-route
	// table indices. Tables fill in first-appearance order so the
	// encoding is deterministic.
	var (
		tabs    = newDeltaTables()
		ids     = make([]rowIDs, len(routes))
		scratch []byte
	)
	for i := range routes {
		ids[i], scratch = tabs.internRoute(scratch, &routes[i], nil)
	}
	for tab, name := range [numTabs]string{"nexthop", "aspath", "community", "extcommunity", "largecommunity"} {
		codecTel().interned(name, tabs.tabs[tab].hits, tabs.tabs[tab].misses)
	}
	var local localIDs
	local.build(tabs, ids)
	return appendRouteBlock(buf, routes, ids, tabs, &local)
}

// localIDs renumbers the rows of one snapshot from some table space
// (a delta chain's, which only ever grows) into the snapshot's own:
// ids dense in first-appearance order, the numbering the binary format
// stores. For rows interned into fresh tables the renumbering is the
// identity. The slices are scratch a caller may keep and reuse.
type localIDs struct {
	remap [numTabs][]uint32 // table id → local id + 1; 0 = not in this snapshot
	order [numTabs][]uint32 // local id → table id
	elems [numTabs]uint64   // total elements of the values in order
}

func (l *localIDs) build(tabs *deltaTables, ids []rowIDs) {
	for tab, it := range tabs.tabs {
		if n := len(it.keys); cap(l.remap[tab]) < n {
			l.remap[tab] = make([]uint32, n, n+n/8)
		} else {
			l.remap[tab] = l.remap[tab][:n]
			clear(l.remap[tab])
		}
		l.order[tab], l.elems[tab] = l.order[tab][:0], 0
	}
	for i := range ids {
		for tab, id := range ids[i] {
			if l.remap[tab][id] == 0 {
				l.order[tab] = append(l.order[tab], uint32(id))
				l.remap[tab][id] = uint32(len(l.order[tab]))
				if tab != tabNH {
					l.elems[tab] += sliceKeyLen(tabs.tabs[tab].keys[id])
				}
			}
		}
	}
}

// sliceKeyLen reads the element count off the front of a slice-valued
// attribute key (appendSliceHeader: 0 = nil, n+1 = n elements).
func sliceKeyLen(key string) uint64 {
	var v uint64
	for i, shift := 0, uint(0); i < len(key); i, shift = i+1, shift+7 {
		v |= uint64(key[i]&0x7f) << shift
		if key[i] < 0x80 {
			break
		}
	}
	return max(v, 1) - 1
}

// appendRouteBlock writes the route block of routes, whose attribute
// ids in tabs are ids and whose renumbering is local: the slice
// header, the five intern tables and the nine columns.
func appendRouteBlock(buf []byte, routes []bgp.Route, ids []rowIDs, tabs *deltaTables, local *localIDs) []byte {
	buf = appendSliceHeader(buf, len(routes), routes == nil)

	// Intern tables. Element totals precede the slice tables so the
	// decoder can size each slab with a single allocation.
	for tab, order := range local.order {
		buf = appendUvarint(buf, uint64(len(order)))
		if tab != tabNH {
			buf = appendUvarint(buf, local.elems[tab])
		}
		for _, id := range order {
			buf = append(buf, tabs.tabs[tab].keys[id]...)
		}
	}

	// Columns, each byte-length-prefixed so a reader can set up
	// per-column cursors without a parsing pre-pass.
	var col, prev, scratch []byte
	indexColumn := func(tab int) {
		col = col[:0]
		remap := local.remap[tab]
		for i := range ids {
			col = appendUvarint(col, uint64(remap[ids[i][tab]]-1))
		}
		buf = appendColumn(buf, col)
	}

	// Prefix column, front-coded against the previous row.
	for i := range routes {
		scratch = appendPrefix(scratch[:0], routes[i].Prefix)
		shared := commonPrefixLen(prev, scratch)
		col = appendUvarint(col, uint64(shared))
		col = appendUvarint(col, uint64(len(scratch)-shared))
		col = append(col, scratch[shared:]...)
		prev = append(prev[:0], scratch...)
	}
	buf = appendColumn(buf, col)

	indexColumn(tabNH)
	indexColumn(tabPath)

	// Origin / MED / LocalPref columns are run-length encoded: route
	// servers leave them at a handful of values, so whole snapshots
	// collapse to a few (run, value) pairs.
	col = col[:0]
	for i := 0; i < len(routes); {
		j := i
		for j < len(routes) && routes[j].Origin == routes[i].Origin {
			j++
		}
		col = appendUvarint(col, uint64(j-i))
		col = appendUvarint(col, uint64(routes[i].Origin))
		i = j
	}
	buf = appendColumn(buf, col)
	col = col[:0]
	for i := 0; i < len(routes); {
		j := i
		for j < len(routes) && routes[j].MED == routes[i].MED {
			j++
		}
		col = appendUvarint(col, uint64(j-i))
		col = appendUvarint(col, uint64(routes[i].MED))
		i = j
	}
	buf = appendColumn(buf, col)
	col = col[:0]
	for i := 0; i < len(routes); {
		j := i
		for j < len(routes) && routes[j].LocalPref == routes[i].LocalPref {
			j++
		}
		col = appendUvarint(col, uint64(j-i))
		col = appendUvarint(col, uint64(routes[i].LocalPref))
		i = j
	}
	buf = appendColumn(buf, col)

	indexColumn(tabComm)
	indexColumn(tabExt)
	indexColumn(tabLarge)
	return buf
}

// appendColumn writes one byte-length-prefixed column.
func appendColumn(buf, col []byte) []byte {
	buf = appendUvarint(buf, uint64(len(col)))
	return append(buf, col...)
}

// appendAddr writes a length-prefixed address in
// netip.Addr.MarshalBinary form (0 bytes invalid, 4 v4, 16 v6,
// 16+zone for zoned), which UnmarshalBinary reverses exactly —
// including 4-in-6 mapped forms. It is written out rather than calling
// MarshalBinary because that allocates its result, once per route on
// the encode paths.
func appendAddr(b []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return append(b, 0)
	case a.Is4():
		raw := a.As4()
		return append(append(b, 4), raw[:]...)
	default:
		raw, zone := a.As16(), a.Zone()
		b = appendUvarint(b, uint64(16+len(zone)))
		return append(append(b, raw[:]...), zone...)
	}
}

// appendPrefix writes a prefix as its address bytes (length-prefixed,
// zone-free by netip.Prefix construction) followed by one bits byte;
// 0xFF encodes the invalid bits value -1.
func appendPrefix(b []byte, p netip.Prefix) []byte {
	b = appendAddr(b, p.Addr())
	return append(b, byte(p.Bits()))
}

// commonPrefixLen returns the length of the longest common prefix of
// a and b.
func commonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n; i++ {
		if a[i] != b[i] {
			break
		}
	}
	return i
}

// --- decoding ------------------------------------------------------------

// breader is a bounds-checked cursor over an encoded snapshot.
type breader struct {
	b   []byte
	off int
}

func (r *breader) remaining() int { return len(r.b) - r.off }

// uvarint is the decoder's hottest call (every index, count, length
// and column value goes through it), so the LEB128 loop is written
// out here instead of calling binary.Uvarint: the single-byte case
// returns immediately, and the general loop avoids re-slicing r.b on
// every call. Semantics match binary.Uvarint, with truncation and
// >64-bit overflow both reported as errBinaryTruncated.
func (r *breader) uvarint() (uint64, error) {
	b, i := r.b, r.off
	if i < len(b) && b[i] < 0x80 {
		r.off = i + 1
		return uint64(b[i]), nil
	}
	var v uint64
	for s := uint(0); s < 64; s += 7 {
		if i >= len(b) {
			return 0, errBinaryTruncated
		}
		c := b[i]
		i++
		if c < 0x80 {
			if s == 63 && c > 1 {
				return 0, errBinaryTruncated // value overflows uint64
			}
			r.off = i
			return v | uint64(c)<<s, nil
		}
		v |= uint64(c&0x7f) << s
	}
	return 0, errBinaryTruncated // varint longer than 10 bytes
}

func (r *breader) svarint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errBinaryTruncated
	}
	r.off += n
	return v, nil
}

func (r *breader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errBinaryTruncated
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *breader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, errBinaryTruncated
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *breader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// sliceHeader reverses appendSliceHeader. The returned length is
// bounded by the remaining bytes (each element costs at least one
// byte), so a corrupt count cannot trigger a huge allocation.
func (r *breader) sliceHeader() (n int, isNil bool, err error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, false, err
	}
	if v == 0 {
		return 0, true, nil
	}
	n = int(v - 1)
	if n < 0 || n > r.remaining() {
		return 0, false, errBinaryTruncated
	}
	return n, false, nil
}

// count reads a table/element count with the same remaining-bytes
// bound as sliceHeader.
func (r *breader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || n > r.remaining() {
		return 0, errBinaryTruncated
	}
	return n, nil
}

func (r *breader) addr() (netip.Addr, error) {
	n, err := r.uvarint()
	if err != nil {
		return netip.Addr{}, err
	}
	raw, err := r.bytes(int(n))
	if err != nil {
		return netip.Addr{}, err
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(raw); err != nil {
		return netip.Addr{}, fmt.Errorf("collector: binary snapshot: %w", err)
	}
	return a, nil
}

// decodeBinaryHeader parses the magic, version and length-prefixed
// header section, leaving the cursor at the route block.
func decodeBinaryHeader(r *breader) (*Snapshot, error) {
	magic, err := r.bytes(len(binaryMagic))
	if err != nil || string(magic) != binaryMagic {
		return nil, errBadMagic
	}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("collector: unsupported binary snapshot version %d (want %d)", version, binaryVersion)
	}
	hdrLen, err := r.count()
	if err != nil {
		return nil, err
	}
	hdr, err := r.bytes(hdrLen)
	if err != nil {
		return nil, err
	}
	s, err := decodeHeaderSection(&breader{b: hdr})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// decodeHeaderSection parses the header bytes (everything between the
// length prefix and the route block). The section must be consumed
// exactly — trailing bytes mean a corrupt length prefix.
func decodeHeaderSection(r *breader) (*Snapshot, error) {
	s := &Snapshot{}
	var err error
	if s.IXP, err = r.string(); err != nil {
		return nil, err
	}
	if s.Date, err = r.string(); err != nil {
		return nil, err
	}
	fc, err := r.svarint()
	if err != nil {
		return nil, err
	}
	s.FilteredCount = int(fc)
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	s.Partial = flags&1 != 0

	n, isNil, err := r.sliceHeader()
	if err != nil {
		return nil, err
	}
	if !isNil {
		s.Members = make([]Member, n)
		for i := range s.Members {
			m := &s.Members[i]
			asn, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			m.ASN = uint32(asn)
			if m.Name, err = r.string(); err != nil {
				return nil, err
			}
			mf, err := r.byte()
			if err != nil {
				return nil, err
			}
			m.IPv4, m.IPv6 = mf&1 != 0, mf&2 != 0
		}
	}
	n, isNil, err = r.sliceHeader()
	if err != nil {
		return nil, err
	}
	if !isNil {
		s.MemberErrors = make([]MemberError, n)
		for i := range s.MemberErrors {
			e := &s.MemberErrors[i]
			asn, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			e.ASN = uint32(asn)
			if e.Stage, err = r.string(); err != nil {
				return nil, err
			}
			if e.Err, err = r.string(); err != nil {
				return nil, err
			}
			attempts, err := r.svarint()
			if err != nil {
				return nil, err
			}
			e.Attempts = int(attempts)
		}
	}
	if r.remaining() != 0 {
		return nil, errBinaryTruncated
	}
	return s, nil
}

// Tables is the five interned attribute tables in wire order: a .bin
// route block carries them whole, a .delta carries the entries its day
// appends to the chain's. A nil set is a route encoded with a nil (not
// empty) slice. They are the decoder's own heap slices — each table's
// elements share one slab — alias no input bytes, and must be treated
// as immutable.
type Tables struct {
	NextHops           []netip.Addr
	ASPaths            []bgp.ASPath
	CommunitySets      [][]bgp.Community
	ExtCommunitySets   [][]bgp.ExtendedCommunity
	LargeCommunitySets [][]bgp.LargeCommunity
}

// sizes returns the entry count of each table, in wire order.
func (t *Tables) sizes() [numTabs]int {
	return [numTabs]int{len(t.NextHops), len(t.ASPaths), len(t.CommunitySets), len(t.ExtCommunitySets), len(t.LargeCommunitySets)}
}

// decodeTables parses the five tables: the one decoder of the encoding
// appendRouteBlock and DeltaEncoder.Encode share. A delta prefixes each
// table with the chain table size its extension assumes; base, when
// non-nil, receives those. corrupt is the caller's sentinel for a count
// the bytes do not bear out.
func decodeTables(r *breader, base *[numTabs]int, corrupt error) (t Tables, err error) {
	for tab := 0; tab < numTabs; tab++ {
		if base != nil {
			v, err := r.uvarint()
			if err != nil {
				return t, err
			}
			if base[tab] = int(v); base[tab] < 0 {
				return t, corrupt
			}
		}
		switch tab {
		case tabNH:
			var n int
			if n, err = r.count(); err != nil {
				return t, err
			}
			t.NextHops = make([]netip.Addr, n)
			for i := range t.NextHops {
				if t.NextHops[i], err = r.addr(); err != nil {
					return t, err
				}
			}
		case tabPath:
			t.ASPaths, err = decodeSets(r, corrupt, appendUint32s[bgp.ASPath])
		case tabComm:
			t.CommunitySets, err = decodeSets(r, corrupt, appendUint32s[[]bgp.Community])
		case tabExt:
			t.ExtCommunitySets, err = decodeSets(r, corrupt, appendExts)
		case tabLarge:
			t.LargeCommunitySets, err = decodeSets(r, corrupt, appendLarges)
		}
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// appendUint32s reads n uvarint elements onto slab: an AS path's hops,
// a standard-community set's values.
func appendUint32s[S ~[]E, E ~uint32](r *breader, slab S, n int) (S, error) {
	for ; n > 0; n-- {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		slab = append(slab, E(v))
	}
	return slab, nil
}

// appendExts reads n extended communities (8 raw bytes each) onto slab.
func appendExts(r *breader, slab []bgp.ExtendedCommunity, n int) ([]bgp.ExtendedCommunity, error) {
	raw, err := r.bytes(8 * n)
	for ; err == nil && len(raw) > 0; raw = raw[8:] {
		slab = append(slab, bgp.ExtendedCommunity(raw[:8]))
	}
	return slab, err
}

// appendLarges reads n large communities (three uvarints each) onto slab.
func appendLarges(r *breader, slab []bgp.LargeCommunity, n int) ([]bgp.LargeCommunity, error) {
	for ; n > 0; n-- {
		var v [3]uint64
		for i := range v {
			var err error
			if v[i], err = r.uvarint(); err != nil {
				return nil, err
			}
		}
		slab = append(slab, bgp.LargeCommunity{Global: uint32(v[0]), Local1: uint32(v[1]), Local2: uint32(v[2])})
	}
	return slab, nil
}

// decodeSets parses one table of element slices: the set count, the
// element total — every set's elements live in one slab sized by it,
// with a single allocation — then each set as a slice header and its
// elements, which fill reads onto the slab: one call through the func
// value per set, not per element.
func decodeSets[S ~[]E, E any](r *breader, corrupt error, fill func(r *breader, slab S, n int) (S, error)) ([]S, error) {
	count, err := r.count()
	if err != nil {
		return nil, err
	}
	elems, err := r.count()
	if err != nil {
		return nil, err
	}
	slab := make(S, 0, elems)
	sets := make([]S, count)
	for i := range sets {
		n, isNil, err := r.sliceHeader()
		if err != nil {
			return nil, err
		}
		if isNil {
			continue
		}
		if len(slab)+n > cap(slab) {
			return nil, corrupt
		}
		start := len(slab)
		if slab, err = fill(r, slab, n); err != nil {
			return nil, err
		}
		sets[i] = slab[start:len(slab):len(slab)]
	}
	return sets, nil
}

// decodeRouteBlock parses the route block that follows the header: the
// intern tables and the nine columns as sub-slices of r's bytes.
// Nothing in the tables aliases r; the columns do.
func decodeRouteBlock(r *breader) (*RouteBlock, error) {
	rb := &RouteBlock{}
	var err error
	if rb.n, rb.isNil, err = r.sliceHeader(); err != nil {
		return nil, err
	}
	if rb.tabs, err = decodeTables(r, nil, errBinaryTruncated); err != nil {
		return nil, err
	}

	// Columns.
	for _, col := range []*[]byte{
		&rb.prefixCol, &rb.nhCol, &rb.pathCol,
		&rb.originCol, &rb.medCol, &rb.lpCol,
		&rb.commCol, &rb.extCol, &rb.largeCol,
	} {
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		if *col, err = r.bytes(n); err != nil {
			return nil, err
		}
	}
	return rb, nil
}

// rle advances one run-length-encoded column cursor.
func rle(col *breader, run, val *uint64) (uint64, error) {
	if *run == 0 {
		var err error
		if *run, err = col.uvarint(); err != nil {
			return 0, err
		}
		if *run == 0 {
			return 0, errBinaryTruncated
		}
		if *val, err = col.uvarint(); err != nil {
			return 0, err
		}
	}
	*run--
	return *val, nil
}
