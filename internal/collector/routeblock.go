// RouteBlock: column-level access to a decoded CodecBinary route
// block. The consumer this exists for is analysis.IndexFromReader,
// which classifies the interned community tables once and then walks
// the columns without ever assembling a bgp.Route — see the RouteRef
// contract below for what each row carries instead.
package collector

import "ixplight/internal/bgp"

// RouteBlock is a decoded route block: the intern tables plus the raw
// column bytes. Obtain one from SnapshotReader.RouteBlock. Scan, the
// only column walk, may be called any number of times. The tables are
// heap storage and outlive the reader. The
// columns alias the reader's bytes — for a reader from OpenSnapshotAt
// the mmap'd file — so Scan must not run after the reader is closed.
type RouteBlock struct {
	n     int
	isNil bool // the snapshot's Routes was nil, not empty

	tabs Tables

	prefixCol, nhCol, pathCol []byte
	originCol, medCol, lpCol  []byte
	commCol, extCol, largeCol []byte

	prefix []byte // front-coding scratch, reused across Scans
}

// NumRoutes returns the row count.
func (b *RouteBlock) NumRoutes() int { return b.n }

// Tables returns the interned attribute tables the RouteRef indices
// point into.
func (b *RouteBlock) Tables() *Tables { return &b.tabs }

// RouteRef is one row of the column walk: intern-table indices plus
// the scalar attributes, no materialized route. PrefixBytes is the
// canonical encoded prefix (length-prefixed netip.Addr.MarshalBinary
// address followed by one bits byte) aliasing a scratch buffer that
// the next row overwrites — copy it to retain it. Two rows carry the
// same prefix iff their PrefixBytes are equal, and V6 matches what
// bgp.Route.IsIPv6 would report for the assembled route.
type RouteRef struct {
	Row         int
	V6          bool
	PrefixBytes []byte

	NextHop          int // index into NextHops
	Path             int // index into ASPaths
	Communities      int // index into CommunitySets
	ExtCommunities   int // index into ExtCommunitySets
	LargeCommunities int // index into LargeCommunitySets

	Origin    bgp.Origin
	MED       uint32
	LocalPref uint32
}

// colIndex reads one bounds-checked intern-table index.
func colIndex(col *breader, n int) (int, error) {
	v, err := col.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(n) {
		return 0, errBinaryTruncated
	}
	return int(v), nil
}

// Scan walks the rows in file order, invoking fn with a reused
// RouteRef; a non-nil error from fn stops the walk and is returned.
// The ref and its PrefixBytes are valid only during the callback.
func (b *RouteBlock) Scan(fn func(*RouteRef) error) error {
	// The cursors are local, so the walk is re-runnable.
	prefixCol := breader{b: b.prefixCol}
	nhCol := breader{b: b.nhCol}
	pathCol := breader{b: b.pathCol}
	originCol := breader{b: b.originCol}
	medCol := breader{b: b.medCol}
	lpCol := breader{b: b.lpCol}
	commCol := breader{b: b.commCol}
	extCol := breader{b: b.extCol}
	largeCol := breader{b: b.largeCol}
	var originRun, medRun, lpRun uint64
	var originVal, medVal, lpVal uint64

	prev := b.prefix[:0]
	var ref RouteRef
	for i := 0; i < b.n; i++ {
		ref.Row = i

		// Prefix: undo the front coding into the scratch buffer.
		shared, err := prefixCol.uvarint()
		if err != nil {
			return err
		}
		suffixLen, err := prefixCol.uvarint()
		if err != nil {
			return err
		}
		if shared > uint64(len(prev)) {
			return errBinaryTruncated
		}
		suffix, err := prefixCol.bytes(int(suffixLen))
		if err != nil {
			return err
		}
		prev = append(prev[:shared], suffix...)
		ref.PrefixBytes = prev
		// The leading uvarint is the marshalled address byte length: 0
		// invalid, 4 v4, ≥16 v6 — exactly the addresses for which
		// netip.Addr.Is6 (and so bgp.Route.IsIPv6) reports true,
		// 4-in-6 mapped forms included.
		pr := breader{b: prev}
		addrLen, err := pr.uvarint()
		if err != nil {
			return err
		}
		ref.V6 = addrLen >= 16

		if ref.NextHop, err = colIndex(&nhCol, len(b.tabs.NextHops)); err != nil {
			return err
		}
		if ref.Path, err = colIndex(&pathCol, len(b.tabs.ASPaths)); err != nil {
			return err
		}

		origin, err := rle(&originCol, &originRun, &originVal)
		if err != nil {
			return err
		}
		ref.Origin = bgp.Origin(origin)
		med, err := rle(&medCol, &medRun, &medVal)
		if err != nil {
			return err
		}
		ref.MED = uint32(med)
		lp, err := rle(&lpCol, &lpRun, &lpVal)
		if err != nil {
			return err
		}
		ref.LocalPref = uint32(lp)

		if ref.Communities, err = colIndex(&commCol, len(b.tabs.CommunitySets)); err != nil {
			return err
		}
		if ref.ExtCommunities, err = colIndex(&extCol, len(b.tabs.ExtCommunitySets)); err != nil {
			return err
		}
		if ref.LargeCommunities, err = colIndex(&largeCol, len(b.tabs.LargeCommunitySets)); err != nil {
			return err
		}

		if err := fn(&ref); err != nil {
			return err
		}
	}
	b.prefix = prev[:0]
	return nil
}

// routes materialises the block: every RouteRef resolved against the
// tables, so routes carrying the same interned value share its slice
// (the aliasing contract in binary.go) and nothing aliases the columns.
func (b *RouteBlock) routes() ([]bgp.Route, error) {
	if b.isNil {
		return nil, nil
	}
	routes := make([]bgp.Route, b.n)
	err := b.Scan(func(ref *RouteRef) error {
		r := &routes[ref.Row]
		var err error
		if r.Prefix, err = decodePrefixBytes(ref.PrefixBytes); err != nil {
			return err
		}
		r.NextHop = b.tabs.NextHops[ref.NextHop]
		r.ASPath = b.tabs.ASPaths[ref.Path]
		r.Origin, r.MED, r.LocalPref = ref.Origin, ref.MED, ref.LocalPref
		r.Communities = b.tabs.CommunitySets[ref.Communities]
		r.ExtCommunities = b.tabs.ExtCommunitySets[ref.ExtCommunities]
		r.LargeCommunities = b.tabs.LargeCommunitySets[ref.LargeCommunities]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return routes, nil
}
