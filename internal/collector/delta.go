// Delta snapshot codec: day N of a daily RIB series stored as edits
// against day N-1 instead of a full table. Consecutive IXP snapshots
// overlap overwhelmingly (the paper's twelve-week series re-announces
// almost every route every day), so a delta carries only the churn:
// intern-table *extensions* (next-hops, AS paths and community sets
// first seen on day N, appended to the base tables so existing ids
// keep meaning the same value along the whole chain) plus a varint op
// stream of add / remove / attr-change route edits keyed by
// (prefix, peer).
//
// A chain is a hash chain. Every file's digest is the sha256 of its
// bytes — a .bin base's is its SnapshotDigest, a delta's covers every
// byte before its 32-byte seal, which is that digest — and a delta
// names the digest of the file it extends. A delta therefore refuses
// to apply to anything but the exact base it was encoded against, a
// delta whose bytes changed is refused at open, and a chain digest
// names the chain up to its day; the content identity of a day is
// SnapshotDigest of the day, whatever chain it came from.
//
// Layout (all integers varint unless noted):
//
//	magic "IXPD" | uvarint version | uvarint header byte length
//	header: base Date (string), base digest (32 bytes), base and day
//	        route counts, flags byte (bit0 day's Routes nil), then day
//	        N's binary header section, byte-length-prefixed
//	tables: per table (next hops, AS paths, standard/extended/large
//	        community sets) the chain size it extends, the entry
//	        count, the element total (not for next hops) and the
//	        entries in the binary codec's encoding
//	ops:    byte-length-prefixed op stream
//	seal:   sha256 of every byte before it (32 bytes)
//
// Three access layers mirror the full binary codec:
//
//   - DeltaEncoder: day N vs day N-1 → delta bytes. The encoder
//     carries the chain's intern tables forward so a whole series can
//     be encoded with each day diffed in one merge pass over two
//     sorted route slices.
//   - DeltaApplier: base + delta → day N snapshot. The applier
//     reconstructs a chain day by day, reusing interned attribute
//     values across days.
//   - DeltaReader: header + table extensions + op stream without
//     materializing any route (the RouteBlock analogue), which is
//     what analysis.Index.Advance consumes.
package collector

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"slices"

	"ixplight/internal/bgp"
)

const deltaMagic = "IXPD"

// deltaVersion is the wire-format version. Version 1 carried day N's
// SnapshotDigest in its header instead of a seal: it cost the encoder
// the whole day's binary encoding every day and was never checked.
const deltaVersion = 2

// DeltaExt is the file extension for delta-encoded snapshots; deltas
// live outside the Codec enum because a delta file is not
// self-contained — it needs its base to materialize.
const DeltaExt = ".delta"

// ErrDeltaBaseMismatch reports a delta applied to (or advanced from)
// a snapshot that is not the base it was encoded against.
var ErrDeltaBaseMismatch = errors.New("collector: delta base mismatch")

var errDeltaCorrupt = errors.New("collector: snapshot delta corrupt")

// errDeltaSeal answers a delta whose bytes do not hash to its seal: a
// flipped bit anywhere in the file.
var errDeltaSeal = fmt.Errorf("%w: its bytes do not hash to its seal", errDeltaCorrupt)

// errDeltaV1 answers a delta of the first format, which no reader
// reads any more.
var errDeltaV1 = errors.New("collector: snapshot delta version 1 is no longer read (version 2 seals each delta with the sha256 of its bytes), so regenerate the dataset with ixpgen or re-collect it with collect")

// SnapshotDigest is the canonical identity of a snapshot's content:
// the sha256 of its CodecBinary encoding. For a snapshot written with
// SaveSnapshot(..., CodecBinary) this equals the sha256 of the file
// bytes, so a chain's base is verified against its file without
// decoding it.
func SnapshotDigest(s *Snapshot) [sha256.Size]byte {
	return sha256.Sum256(appendBinarySnapshot(nil, s))
}

// --- chain intern tables --------------------------------------------------

// Table indices for the five interned attribute tables, in wire order.
const (
	tabNH = iota
	tabPath
	tabComm
	tabExt
	tabLarge
	numTabs
)

// rowIDs is one route's attribute ids in the chain table space.
type rowIDs [numTabs]uint64

// deltaTables is the chain's append-only id space: the base
// snapshot's tables in canonical (first-appearance) order, extended
// by each delta in turn, never shrunk. Both endpoints of a delta —
// encoder and applier/Advance — grow identical tables in lockstep, so
// an id means the same value on both sides for the chain's lifetime.
type deltaTables struct {
	tabs [numTabs]*interner
}

func newDeltaTables() *deltaTables {
	var t deltaTables
	for i := range t.tabs {
		t.tabs[i] = newInterner()
	}
	return &t
}

func (t *deltaTables) sizes() (s [numTabs]int) {
	for i, it := range t.tabs {
		s[i] = len(it.keys)
	}
	return s
}

// truncate drops every entry past sizes: what an Encode that failed
// partway through had interned.
func (t *deltaTables) truncate(sizes [numTabs]int) {
	for tab, it := range t.tabs {
		for _, key := range it.keys[sizes[tab]:] {
			delete(it.idx, key)
		}
		it.keys = it.keys[:sizes[tab]]
	}
}

// Attribute key encodings — identical to the intern keys (and table
// body encodings) of the binary route block, so extension bodies are
// just the concatenated keys of the new entries.

func appendPathKey(b []byte, p bgp.ASPath) []byte {
	b = appendSliceHeader(b, len(p), p == nil)
	for _, asn := range p {
		b = appendUvarint(b, uint64(asn))
	}
	return b
}

func appendCommKey(b []byte, cs []bgp.Community) []byte {
	b = appendSliceHeader(b, len(cs), cs == nil)
	for _, c := range cs {
		b = appendUvarint(b, uint64(c))
	}
	return b
}

func appendExtKey(b []byte, es []bgp.ExtendedCommunity) []byte {
	b = appendSliceHeader(b, len(es), es == nil)
	for _, e := range es {
		b = append(b, e[:]...)
	}
	return b
}

func appendLargeKey(b []byte, ls []bgp.LargeCommunity) []byte {
	b = appendSliceHeader(b, len(ls), ls == nil)
	for _, l := range ls {
		b = appendUvarint(b, uint64(l.Global))
		b = appendUvarint(b, uint64(l.Local1))
		b = appendUvarint(b, uint64(l.Local2))
	}
	return b
}

// tableExt collects the entries a delta adds to the chain tables: per
// table how many, their total element count and their concatenated
// keys (which are their wire encoding), in first-appearance order.
type tableExt struct {
	count [numTabs]int
	elems [numTabs]uint64
	body  [numTabs][]byte
}

// internRoute resolves r's five attributes to chain ids; every value
// seen for the first time is also recorded in ext, when one is given.
// scratch is reused across calls; the grown slice is returned.
func (t *deltaTables) internRoute(scratch []byte, r *bgp.Route, ext *tableExt) (ids rowIDs, _ []byte) {
	for tab := range ids {
		elems := 0
		switch tab {
		case tabNH:
			scratch = appendAddr(scratch[:0], r.NextHop)
		case tabPath:
			scratch, elems = appendPathKey(scratch[:0], r.ASPath), len(r.ASPath)
		case tabComm:
			scratch, elems = appendCommKey(scratch[:0], r.Communities), len(r.Communities)
		case tabExt:
			scratch, elems = appendExtKey(scratch[:0], r.ExtCommunities), len(r.ExtCommunities)
		case tabLarge:
			scratch, elems = appendLargeKey(scratch[:0], r.LargeCommunities), len(r.LargeCommunities)
		}
		id, isNew := t.tabs[tab].intern(scratch)
		if ids[tab] = id; isNew && ext != nil {
			ext.count[tab]++
			ext.elems[tab] += uint64(elems)
			ext.body[tab] = append(ext.body[tab], scratch...)
		}
	}
	return ids, scratch
}

// sameAttrs reports whether two routes carry the same five interned
// attributes — the values internRoute keys, nil-ness of each list
// included — so that one's chain ids are the other's.
func sameAttrs(a, b *bgp.Route) bool {
	return a.NextHop == b.NextHop &&
		sameList(a.ASPath, b.ASPath) &&
		sameList(a.Communities, b.Communities) &&
		sameList(a.ExtCommunities, b.ExtCommunities) &&
		sameList(a.LargeCommunities, b.LargeCommunities)
}

// sameList compares two attribute lists, nil-ness included. Lists that
// share their backing array are equal without an element walk: a day
// evolved from the one before shares the slices of every route it did
// not edit.
func sameList[S ~[]E, E comparable](a, b S) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}

// routeCompare is Normalize's sort order (family, prefix address,
// prefix length, peer AS) — the delta merge key. It deliberately
// compares the parsed fields, not encoded bytes, so it agrees with
// Normalize for every representable route.
//
// It reads the fields through the pointers: Route's value-receiver
// helpers (IsIPv6, PeerAS) copy the whole route per call, which on the
// merge walks' hot path cost more than the comparison itself.
func routeCompare(a, b *bgp.Route) int {
	av6, bv6 := a.Prefix.Addr().Is6(), b.Prefix.Addr().Is6()
	if av6 != bv6 {
		if bv6 {
			return -1
		}
		return 1
	}
	if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
		return c
	}
	ab, bb := a.Prefix.Bits(), b.Prefix.Bits()
	if ab != bb {
		if ab < bb {
			return -1
		}
		return 1
	}
	ap, bp := a.ASPath.Neighbor(), b.ASPath.Neighbor()
	if ap != bp {
		if ap < bp {
			return -1
		}
		return 1
	}
	return 0
}

// checkRouteOrder verifies routes are Normalize-sorted; the merge
// walk is only correct over sorted inputs.
func checkRouteOrder(routes []bgp.Route) error {
	for i := 1; i < len(routes); i++ {
		if routeCompare(&routes[i-1], &routes[i]) > 0 {
			return errOutOfOrder(i)
		}
	}
	return nil
}

func errOutOfOrder(i int) error {
	return fmt.Errorf("collector: delta endpoint not normalized (route %d out of order); call Snapshot.Normalize first", i)
}

// --- op stream ------------------------------------------------------------

// DeltaOpKind enumerates the route ops of a delta's edit stream.
type DeltaOpKind uint8

const (
	// DeltaCopy keeps the next N base routes unchanged.
	DeltaCopy DeltaOpKind = iota
	// DeltaDel removes the next base route (op carries its tuple).
	DeltaDel
	// DeltaAdd inserts a route absent from the base.
	DeltaAdd
	// DeltaChange replaces the attributes of a (prefix, peer) present
	// in both endpoints; the op carries old and new attribute tuples
	// so consumers can decrement/increment without per-row state.
	DeltaChange
)

func (k DeltaOpKind) String() string {
	switch k {
	case DeltaCopy:
		return "copy"
	case DeltaDel:
		return "del"
	case DeltaAdd:
		return "add"
	case DeltaChange:
		return "change"
	default:
		return fmt.Sprintf("DeltaOpKind(%d)", uint8(k))
	}
}

// DeltaTuple is one route version's attributes: five chain-table ids
// plus the three scalar path attributes.
type DeltaTuple struct {
	NextHop          int
	Path             int
	Communities      int
	ExtCommunities   int
	LargeCommunities int
	Origin           bgp.Origin
	MED              uint32
	LocalPref        uint32
}

// DeltaOp is one decoded edit. Like RouteBlock's RouteRef it is
// reused across Ops callbacks; PrefixBytes aliases the delta buffer
// (the canonical appendPrefix encoding, valid while the reader's
// bytes live).
type DeltaOp struct {
	Kind DeltaOpKind
	// N is the run length of a DeltaCopy.
	N int
	// V6 reports the route family for Del/Add/Change ops.
	V6 bool
	// PrefixBytes is the encoded prefix for Del/Add/Change ops.
	PrefixBytes []byte
	// Old is set for Del and Change; New for Add and Change.
	Old, New DeltaTuple
}

// Prefix decodes the op's prefix.
func (op *DeltaOp) Prefix() (netip.Prefix, error) {
	return decodePrefixBytes(op.PrefixBytes)
}

// decodePrefixBytes reverses appendPrefix; the bytes must be consumed
// exactly.
func decodePrefixBytes(b []byte) (netip.Prefix, error) {
	r := &breader{b: b}
	a, err := r.addr()
	if err != nil {
		return netip.Prefix{}, err
	}
	bits, err := r.byte()
	if err != nil {
		return netip.Prefix{}, err
	}
	if r.remaining() != 0 {
		return netip.Prefix{}, errBinaryTruncated
	}
	if bits == 0xFF {
		return netip.PrefixFrom(a, -1), nil
	}
	return netip.PrefixFrom(a, int(bits)), nil
}

// --- encoder --------------------------------------------------------------

// DeltaEncoder diffs a daily series against its chain tables. Create
// it on day 0 (the full base snapshot) and call Encode once per
// following day; each call diffs against the previous one and
// advances. The encoder retains each snapshot until the next call.
//
// A day costs its merge walk and its churn. The walk pairs each of day
// N's routes with day N-1's route for the same (prefix, peer), and a
// pair whose attributes compare equal takes over yesterday's chain ids
// without building a key; only added and re-tagged routes are
// interned. The walk also proves day N sorted, and the delta's digest
// is the sha256 of the delta's own bytes, so nothing else visits every
// route: the day's binary encoding is built once per chain, for the
// base's digest.
type DeltaEncoder struct {
	tabs    *deltaTables
	prev    *Snapshot
	prevIDs []rowIDs
	digest  [sha256.Size]byte

	// spareIDs is the ids buffer the next Encode fills: the one before
	// prevIDs, recycled.
	spareIDs []rowIDs

	// Scratch reused from day to day.
	scratch []byte
	hdr     []byte
	ops     []byte
}

// NewDeltaEncoder starts a chain at base, which must be normalized
// (Normalize-sorted routes). The chain id space starts as base's
// canonical intern tables — identical to its CodecBinary table order.
func NewDeltaEncoder(base *Snapshot) (*DeltaEncoder, error) {
	if err := checkRouteOrder(base.Routes); err != nil {
		return nil, err
	}
	e := &DeltaEncoder{prev: base}
	e.tabs, e.prevIDs = internRoutes(base.Routes)
	e.digest = sha256.Sum256(appendSnapshotEncoding(nil, base, e.tabs, e.prevIDs))
	return e, nil
}

// Base returns the snapshot the next Encode will diff against.
func (e *DeltaEncoder) Base() *Snapshot { return e.prev }

// BaseDigest returns the chain digest of the current base: the
// SnapshotDigest of the chain's first day, then the digest of the
// delta the last Encode returned.
func (e *DeltaEncoder) BaseDigest() [sha256.Size]byte { return e.digest }

// Encode emits next as a delta against the encoder's current base
// and makes next the new base. next must be normalized and is
// retained by the encoder. An error leaves the encoder as it was.
func (e *DeltaEncoder) Encode(next *Snapshot) ([]byte, error) {
	base := e.prev
	baseSizes := e.tabs.sizes()

	// Merge walk over the two sorted route slices, resolving day N's
	// chain ids and emitting ops as it goes. First-seen values become
	// the table extensions, in day-N first-appearance order (a route
	// equal to its base counterpart cannot carry one). Duplicate
	// (prefix, peer) keys — possible in principle — pair up one-to-one
	// in order on both sides.
	var (
		ext     tableExt
		nextIDs = slices.Grow(e.spareIDs[:0], len(next.Routes))[:len(next.Routes)]
		ops     = e.ops[:0]
		run     uint64
		// proven: next.Routes[j] has compared above a base route, which
		// proves it in order (see the c > 0 case).
		proven bool
	)
	flushRun := func() {
		if run > 0 {
			ops = append(ops, byte(DeltaCopy))
			ops = appendUvarint(ops, run)
			run = 0
		}
	}
	appendAttrs := func(b []byte, ids rowIDs, r *bgp.Route) []byte {
		for _, id := range ids {
			b = appendUvarint(b, id)
		}
		b = appendUvarint(b, uint64(r.Origin))
		b = appendUvarint(b, uint64(r.MED))
		return appendUvarint(b, uint64(r.LocalPref))
	}
	appendOpPrefix := func(b []byte, r *bgp.Route) []byte {
		e.scratch = appendPrefix(e.scratch[:0], r.Prefix)
		b = appendUvarint(b, uint64(len(e.scratch)))
		return append(b, e.scratch...)
	}
	i, j := 0, 0
	for i < len(base.Routes) || j < len(next.Routes) {
		c := 0
		switch {
		case i >= len(base.Routes):
			c = 1
		case j >= len(next.Routes):
			c = -1
		default:
			c = routeCompare(&base.Routes[i], &next.Routes[j])
		}
		switch {
		case c < 0: // only in base → removed
			flushRun()
			ops = append(ops, byte(DeltaDel))
			ops = appendOpPrefix(ops, &base.Routes[i])
			ops = appendAttrs(ops, e.prevIDs[i], &base.Routes[i])
			proven = true
			i++
		case c > 0: // only in next → announced
			// The order check, folded into the walk. The base is
			// sorted, and next.Routes[j-1] is no higher than the base
			// route the walk stood at once it was consumed (it compared
			// below that route, or equal to the one before it). So a
			// next route that compares above or equal to a base route
			// since is in order, which the c == 0 case needs no check
			// for; only a route that compared below every base route it
			// met, or met none, is compared with its predecessor.
			if j > 0 && !proven && routeCompare(&next.Routes[j-1], &next.Routes[j]) > 0 {
				e.tabs.truncate(baseSizes)
				return nil, errOutOfOrder(j)
			}
			nextIDs[j], e.scratch = e.tabs.internRoute(e.scratch, &next.Routes[j], &ext)
			flushRun()
			ops = append(ops, byte(DeltaAdd))
			ops = appendOpPrefix(ops, &next.Routes[j])
			ops = appendAttrs(ops, nextIDs[j], &next.Routes[j])
			proven = false
			j++
		default:
			br, nr := &base.Routes[i], &next.Routes[j]
			if sameAttrs(br, nr) {
				nextIDs[j] = e.prevIDs[i]
			} else {
				nextIDs[j], e.scratch = e.tabs.internRoute(e.scratch, nr, &ext)
			}
			if e.prevIDs[i] == nextIDs[j] && br.Origin == nr.Origin && br.MED == nr.MED && br.LocalPref == nr.LocalPref {
				run++
			} else {
				flushRun()
				ops = append(ops, byte(DeltaChange))
				ops = appendOpPrefix(ops, nr)
				ops = appendAttrs(ops, e.prevIDs[i], br)
				ops = appendAttrs(ops, nextIDs[j], nr)
			}
			proven = false
			i++
			j++
		}
	}
	flushRun()
	e.ops = ops

	// Header: chain linkage (base date and digest, route counts) plus
	// day N's full snapshot header section, so a DeltaReader can answer
	// Header() — and analysis can see day N's member list — without
	// the base.
	e.hdr = appendHeaderSection(e.hdr[:0], next)
	hdr := appendString(e.scratch[:0], base.Date)
	hdr = append(hdr, e.digest[:]...)
	hdr = appendUvarint(hdr, uint64(len(base.Routes)))
	hdr = appendUvarint(hdr, uint64(len(next.Routes)))
	// Nil-vs-empty Routes is digest-relevant (the binary codec
	// distinguishes them), so the delta must preserve it.
	var hdrFlags byte
	if next.Routes == nil {
		hdrFlags |= 1
	}
	hdr = append(hdr, hdrFlags)
	hdr = appendUvarint(hdr, uint64(len(e.hdr)))
	hdr = append(hdr, e.hdr...)
	e.scratch = hdr

	size := len(deltaMagic) + len(hdr) + len(ops) + 16*binary.MaxVarintLen64 + sha256.Size
	for _, body := range ext.body {
		size += len(body)
	}
	buf := append(make([]byte, 0, size), deltaMagic...)
	buf = appendUvarint(buf, deltaVersion)
	buf = appendUvarint(buf, uint64(len(hdr)))
	buf = append(buf, hdr...)
	// Table extensions, each prefixed with the base table size it
	// extends (an id-space handshake: apply fails fast when encoder
	// and applier tables drifted, instead of mis-resolving ids).
	for tab := range ext.body {
		buf = appendUvarint(buf, uint64(baseSizes[tab]))
		buf = appendUvarint(buf, uint64(ext.count[tab]))
		if tab != tabNH {
			buf = appendUvarint(buf, ext.elems[tab])
		}
		buf = append(buf, ext.body[tab]...)
	}
	buf = appendColumn(buf, ops)
	self := sha256.Sum256(buf)
	buf = append(buf, self[:]...)

	e.spareIDs = e.prevIDs
	e.prev, e.prevIDs, e.digest = next, nextIDs, self
	return buf, nil
}

// --- reader ---------------------------------------------------------------

// DeltaReader exposes a parsed delta — header, table extensions and
// the op stream — without materializing routes, mirroring RouteBlock.
// Opening it parses the file's structure, verifies its seal and reads
// the chain linkage and the header's scalar facts; the
// member lists stay undecoded until Header builds the day against its
// base, so an open costs the day's churn, not its membership. The
// extension tables are decoded eagerly (they are churn-sized, not
// table-sized); ops are decoded on each Ops call. A reader is not safe
// for concurrent use.
type DeltaReader struct {
	// facts is day N's header without its member lists; members is
	// the undecoded rest of the header section, aliasing the data.
	facts      Snapshot
	members    []byte
	baseDate   string
	baseDigest [sha256.Size]byte
	selfDigest [sha256.Size]byte
	baseRoutes int
	nextRoutes int
	routesNil  bool

	baseSizes [numTabs]int
	ext       Tables

	ops []byte
	op  DeltaOp // the one op Ops hands its callback
}

// OpenDelta reads and parses a delta file. A parse error does not name
// the file: the caller knows which one it opened.
func OpenDelta(path string) (*DeltaReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewDeltaReader(data)
}

// NewDeltaReader parses a delta from data, which must stay immutable
// and alive for the reader's lifetime (ops alias it). The structure is
// parsed first, so a file cut short reports as truncated; then the seal
// is checked, so a delta any of whose bytes changed is refused before
// anything is built from it.
func NewDeltaReader(data []byte) (*DeltaReader, error) {
	r := breader{b: data}
	magic, err := r.bytes(len(deltaMagic))
	if err != nil || string(magic) != deltaMagic {
		return nil, errors.New("collector: not a snapshot delta (bad magic)")
	}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version == 1 {
		return nil, errDeltaV1
	}
	if version != deltaVersion {
		return nil, fmt.Errorf("collector: unsupported snapshot delta version %d (want %d)", version, deltaVersion)
	}
	hdrLen, err := r.count()
	if err != nil {
		return nil, err
	}
	hdrBytes, err := r.bytes(hdrLen)
	if err != nil {
		return nil, err
	}
	d := &DeltaReader{}
	hr := breader{b: hdrBytes}
	if d.baseDate, err = hr.string(); err != nil {
		return nil, err
	}
	bd, err := hr.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	copy(d.baseDigest[:], bd)
	br, err := hr.uvarint()
	if err != nil {
		return nil, err
	}
	nr, err := hr.uvarint()
	if err != nil {
		return nil, err
	}
	d.baseRoutes, d.nextRoutes = int(br), int(nr)
	// Every added route costs at least two op bytes, so a plausible
	// nextRoutes is bounded by the base plus the delta size; anything
	// larger is a corrupt count that would drive huge allocations.
	if d.baseRoutes < 0 || d.nextRoutes < 0 || d.nextRoutes > d.baseRoutes+len(data) {
		return nil, errDeltaCorrupt
	}
	hdrFlags, err := hr.byte()
	if err != nil {
		return nil, err
	}
	d.routesNil = hdrFlags&1 != 0
	if d.routesNil && d.nextRoutes != 0 {
		return nil, errDeltaCorrupt
	}
	shLen, err := hr.count()
	if err != nil {
		return nil, err
	}
	shBytes, err := hr.bytes(shLen)
	if err != nil {
		return nil, err
	}
	sr := breader{b: shBytes}
	if err := decodeHeaderFacts(&sr, &d.facts); err != nil {
		return nil, err
	}
	d.members = shBytes[sr.off:]
	if hr.remaining() != 0 {
		return nil, errDeltaCorrupt
	}

	if d.ext, err = decodeTables(&r, &d.baseSizes, errDeltaCorrupt); err != nil {
		return nil, err
	}

	opsLen, err := r.count()
	if err != nil {
		return nil, err
	}
	if d.ops, err = r.bytes(opsLen); err != nil {
		return nil, err
	}
	sealed := r.off
	seal, err := r.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, errDeltaCorrupt
	}
	if d.selfDigest = sha256.Sum256(data[:sealed]); [sha256.Size]byte(seal) != d.selfDigest {
		return nil, errDeltaSeal
	}
	return d, nil
}

// IXP and Date return day N's IXP and date: the header facts a caller
// can read without building the day.
func (d *DeltaReader) IXP() string  { return d.facts.IXP }
func (d *DeltaReader) Date() string { return d.facts.Date }

// Header builds day N's header-only snapshot (Routes nil), decoding
// its member lists; a corrupt list is an error here, not at open. base
// is nil, or the day the delta applies to: then a member equal to a
// base member takes its name string, a member list equal to the base's
// is the base's slice, and an IXP equal to the base's is its string
// (decodeMemberLists), so a day costs its churn. Each call returns a
// new snapshot that owns no byte of the delta's data; callers must not
// mutate what it shares with base.
func (d *DeltaReader) Header(base *Snapshot) (*Snapshot, error) {
	s := new(Snapshot)
	*s = d.facts
	if base != nil && base.IXP == s.IXP {
		s.IXP = base.IXP
	}
	if err := decodeMemberLists(&breader{b: d.members}, s, base); err != nil {
		return nil, err
	}
	return s, nil
}

// BaseDate returns the Date of the snapshot this delta applies to.
func (d *DeltaReader) BaseDate() string { return d.baseDate }

// BaseDigest returns the digest of the file this delta extends: the
// SnapshotDigest of a .bin base, the SelfDigest of a delta.
func (d *DeltaReader) BaseDigest() [sha256.Size]byte { return d.baseDigest }

// SelfDigest returns the delta's chain digest, the sha256 of its bytes
// before the seal (verified at open): it names the chain up to day N,
// and is the BaseDigest the chain's next delta must carry. Day N's
// content identity is SnapshotDigest of the day built from it.
func (d *DeltaReader) SelfDigest() [sha256.Size]byte { return d.selfDigest }

// BaseRoutes and NextRoutes return the route counts of the two
// endpoints.
func (d *DeltaReader) BaseRoutes() int { return d.baseRoutes }
func (d *DeltaReader) NextRoutes() int { return d.nextRoutes }

// BaseTableSizes returns the per-table base entry counts this delta's
// ids assume, in table wire order (next-hops, AS paths, community
// sets, extended sets, large sets).
func (d *DeltaReader) BaseTableSizes() [5]int { return d.baseSizes }

// Tables returns the table extensions: the values first seen on day
// N, to be appended to the base tables in this order.
func (d *DeltaReader) Tables() *Tables { return &d.ext }

// Ops streams the edit ops in order, reusing one DeltaOp across
// calls (copy what you keep). It is re-runnable: each call walks the
// op bytes from the start. Ids are bounds-checked against
// base+extension table sizes before the callback sees them.
func (d *DeltaReader) Ops(fn func(op *DeltaOp) error) error {
	limits := d.baseSizes
	for tab, n := range d.ext.sizes() {
		limits[tab] += n
	}

	r := breader{b: d.ops}
	op := &d.op
	readTuple := func(t *DeltaTuple) error {
		var ids [numTabs]uint64
		for tab := range ids {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			if v >= uint64(limits[tab]) {
				return errDeltaCorrupt
			}
			ids[tab] = v
		}
		t.NextHop = int(ids[tabNH])
		t.Path = int(ids[tabPath])
		t.Communities = int(ids[tabComm])
		t.ExtCommunities = int(ids[tabExt])
		t.LargeCommunities = int(ids[tabLarge])
		o, err := r.uvarint()
		if err != nil {
			return err
		}
		t.Origin = bgp.Origin(o)
		med, err := r.uvarint()
		if err != nil {
			return err
		}
		t.MED = uint32(med)
		lp, err := r.uvarint()
		if err != nil {
			return err
		}
		t.LocalPref = uint32(lp)
		return nil
	}
	readPrefix := func() error {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if op.PrefixBytes, err = r.bytes(int(n)); err != nil {
			return err
		}
		if len(op.PrefixBytes) == 0 {
			return errDeltaCorrupt
		}
		// appendPrefix's first byte is the single-byte address length
		// varint: ≥16 means a 16-byte (IPv6) address.
		op.V6 = op.PrefixBytes[0] >= 16
		return nil
	}
	for r.remaining() > 0 {
		kind, err := r.byte()
		if err != nil {
			return err
		}
		*op = DeltaOp{Kind: DeltaOpKind(kind)}
		switch op.Kind {
		case DeltaCopy:
			n, err := r.uvarint()
			if err != nil {
				return err
			}
			op.N = int(n)
			if op.N <= 0 {
				return errDeltaCorrupt
			}
		case DeltaDel:
			if err := readPrefix(); err != nil {
				return err
			}
			if err := readTuple(&op.Old); err != nil {
				return err
			}
		case DeltaAdd:
			if err := readPrefix(); err != nil {
				return err
			}
			if err := readTuple(&op.New); err != nil {
				return err
			}
		case DeltaChange:
			if err := readPrefix(); err != nil {
				return err
			}
			if err := readTuple(&op.Old); err != nil {
				return err
			}
			if err := readTuple(&op.New); err != nil {
				return err
			}
		default:
			return errDeltaCorrupt
		}
		if err := fn(op); err != nil {
			return err
		}
	}
	return nil
}

// --- applier --------------------------------------------------------------

// DeltaApplier materializes a delta chain day by day. Create it on
// the chain's base snapshot and call Apply once per delta in order;
// interned attribute values are shared across all materialized days.
type DeltaApplier struct {
	tabs *deltaTables
	vals Tables // the values behind the ids, id-indexed

	cur     *Snapshot
	curIDs  []rowIDs
	digest  [sha256.Size]byte
	scratch []byte
}

// NewDeltaApplier starts a chain at base (normalized routes).
func NewDeltaApplier(base *Snapshot) (*DeltaApplier, error) {
	if err := checkRouteOrder(base.Routes); err != nil {
		return nil, err
	}
	a := &DeltaApplier{cur: base}
	a.tabs, a.curIDs = internRoutes(base.Routes)
	for i, ids := range a.curIDs {
		r := &base.Routes[i]
		// An id one past a value table's end is the value's first
		// appearance.
		v := &a.vals
		if ids[tabNH] == uint64(len(v.NextHops)) {
			v.NextHops = append(v.NextHops, r.NextHop)
		}
		if ids[tabPath] == uint64(len(v.ASPaths)) {
			v.ASPaths = append(v.ASPaths, r.ASPath)
		}
		if ids[tabComm] == uint64(len(v.CommunitySets)) {
			v.CommunitySets = append(v.CommunitySets, r.Communities)
		}
		if ids[tabExt] == uint64(len(v.ExtCommunitySets)) {
			v.ExtCommunitySets = append(v.ExtCommunitySets, r.ExtCommunities)
		}
		if ids[tabLarge] == uint64(len(v.LargeCommunitySets)) {
			v.LargeCommunitySets = append(v.LargeCommunitySets, r.LargeCommunities)
		}
	}
	a.digest = sha256.Sum256(appendSnapshotEncoding(nil, base, a.tabs, a.curIDs))
	return a, nil
}

// Digest returns the chain digest of the current snapshot: the
// SnapshotDigest of the chain's base, then the SelfDigest of the last
// delta applied. It names the chain up to the current day; the day's
// content identity is SnapshotDigest of the day.
func (a *DeltaApplier) Digest() [sha256.Size]byte { return a.digest }

// extend registers a delta's table extensions: values are appended to
// the id-indexed tables and their canonical keys re-interned so the
// chain's id space stays in lockstep with the encoder's.
func (a *DeltaApplier) extend(d *DeltaReader) error {
	sizes := a.tabs.sizes()
	if sizes != d.BaseTableSizes() {
		return fmt.Errorf("%w: delta expects table sizes %v, chain has %v",
			ErrDeltaBaseMismatch, d.BaseTableSizes(), sizes)
	}
	ext, v := d.Tables(), &a.vals
	for _, nh := range ext.NextHops {
		a.scratch = appendAddr(a.scratch[:0], nh)
		if _, isNew := a.tabs.tabs[tabNH].intern(a.scratch); !isNew {
			return errDeltaCorrupt // extension value already interned
		}
		v.NextHops = append(v.NextHops, nh)
	}
	for _, p := range ext.ASPaths {
		a.scratch = appendPathKey(a.scratch[:0], p)
		if _, isNew := a.tabs.tabs[tabPath].intern(a.scratch); !isNew {
			return errDeltaCorrupt
		}
		v.ASPaths = append(v.ASPaths, p)
	}
	for _, cs := range ext.CommunitySets {
		a.scratch = appendCommKey(a.scratch[:0], cs)
		if _, isNew := a.tabs.tabs[tabComm].intern(a.scratch); !isNew {
			return errDeltaCorrupt
		}
		v.CommunitySets = append(v.CommunitySets, cs)
	}
	for _, es := range ext.ExtCommunitySets {
		a.scratch = appendExtKey(a.scratch[:0], es)
		if _, isNew := a.tabs.tabs[tabExt].intern(a.scratch); !isNew {
			return errDeltaCorrupt
		}
		v.ExtCommunitySets = append(v.ExtCommunitySets, es)
	}
	for _, ls := range ext.LargeCommunitySets {
		a.scratch = appendLargeKey(a.scratch[:0], ls)
		if _, isNew := a.tabs.tabs[tabLarge].intern(a.scratch); !isNew {
			return errDeltaCorrupt
		}
		v.LargeCommunitySets = append(v.LargeCommunitySets, ls)
	}
	return nil
}

// Apply materializes the delta's day-N snapshot and advances the
// chain. The delta must have been encoded against the chain's current
// snapshot (digest-verified: its BaseDigest is the chain's Digest).
func (a *DeltaApplier) Apply(d *DeltaReader) (*Snapshot, error) {
	if bd := d.BaseDigest(); bd != a.digest {
		return nil, fmt.Errorf("%w: delta for %q base %x…, chain at %x…",
			ErrDeltaBaseMismatch, d.BaseDate(), bd[:4], a.digest[:4])
	}
	if d.BaseRoutes() != len(a.cur.Routes) {
		return nil, fmt.Errorf("%w: delta expects %d base routes, chain has %d",
			ErrDeltaBaseMismatch, d.BaseRoutes(), len(a.cur.Routes))
	}
	if err := a.extend(d); err != nil {
		return nil, err
	}

	next, err := d.Header(a.cur) // Routes filled below
	if err != nil {
		return nil, err
	}
	routes := make([]bgp.Route, 0, d.NextRoutes())
	ids := make([]rowIDs, 0, d.NextRoutes())
	i := 0 // base cursor
	tupleIDs := func(t *DeltaTuple) rowIDs {
		return rowIDs{uint64(t.NextHop), uint64(t.Path), uint64(t.Communities), uint64(t.ExtCommunities), uint64(t.LargeCommunities)}
	}
	buildRoute := func(p netip.Prefix, t *DeltaTuple) bgp.Route {
		return bgp.Route{
			Prefix:           p,
			NextHop:          a.vals.NextHops[t.NextHop],
			ASPath:           a.vals.ASPaths[t.Path],
			Origin:           t.Origin,
			MED:              t.MED,
			LocalPref:        t.LocalPref,
			Communities:      a.vals.CommunitySets[t.Communities],
			ExtCommunities:   a.vals.ExtCommunitySets[t.ExtCommunities],
			LargeCommunities: a.vals.LargeCommunitySets[t.LargeCommunities],
		}
	}
	err = d.Ops(func(op *DeltaOp) error {
		switch op.Kind {
		case DeltaCopy:
			if i+op.N > len(a.cur.Routes) {
				return errDeltaCorrupt
			}
			routes = append(routes, a.cur.Routes[i:i+op.N]...)
			ids = append(ids, a.curIDs[i:i+op.N]...)
			i += op.N
		case DeltaDel:
			if i >= len(a.cur.Routes) || a.curIDs[i] != tupleIDs(&op.Old) {
				return errDeltaCorrupt
			}
			i++
		case DeltaAdd:
			p, err := op.Prefix()
			if err != nil {
				return err
			}
			routes = append(routes, buildRoute(p, &op.New))
			ids = append(ids, tupleIDs(&op.New))
		case DeltaChange:
			if i >= len(a.cur.Routes) || a.curIDs[i] != tupleIDs(&op.Old) {
				return errDeltaCorrupt
			}
			p, err := op.Prefix()
			if err != nil {
				return err
			}
			routes = append(routes, buildRoute(p, &op.New))
			ids = append(ids, tupleIDs(&op.New))
			i++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if i != len(a.cur.Routes) || len(routes) != d.NextRoutes() {
		return nil, errDeltaCorrupt
	}
	if d.routesNil {
		routes = nil
	}
	next.Routes = routes
	a.cur, a.curIDs, a.digest = next, ids, d.SelfDigest()
	return next, nil
}

// Encoder returns a DeltaEncoder continuing this chain: it takes over
// the applier's id space and buffers and diffs against the applier's
// current snapshot. Append uses it to extend an on-disk chain by a
// crawled day. The applier is done once its encoder exists.
func (a *DeltaApplier) Encoder() *DeltaEncoder {
	return &DeltaEncoder{tabs: a.tabs, prev: a.cur, prevIDs: a.curIDs, digest: a.digest}
}
