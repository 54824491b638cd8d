// Delta snapshot codec: day N of a daily RIB series stored as edits
// against day N-1 instead of a full table. Consecutive IXP snapshots
// overlap overwhelmingly (the paper's twelve-week series re-announces
// almost every route every day), so a delta carries only the churn:
// intern-table *extensions* (next-hops, AS paths and community sets
// first seen on day N, appended to the base tables so existing ids
// keep meaning the same value along the whole chain) plus a varint op
// stream of add / remove / attr-change route edits keyed by
// (prefix, peer). The format is self-describing — "IXPD" magic,
// version, digests of both endpoints — and chains verify: a delta
// refuses to apply to anything but the exact base it was encoded
// against.
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
const deltaVersion = 1

// DeltaExt is the file extension for delta-encoded snapshots; deltas
// live outside the Codec enum (like .mrt archives) because a delta
// file is not self-contained — it needs its base to materialize.
const DeltaExt = ".delta"

// ErrDeltaBaseMismatch reports a delta applied to (or advanced from)
// a snapshot that is not the base it was encoded against.
var ErrDeltaBaseMismatch = errors.New("collector: delta base mismatch")

var errDeltaCorrupt = errors.New("collector: snapshot delta corrupt")

// IsDelta reports whether data starts with the delta magic.
func IsDelta(data []byte) bool {
	return len(data) >= len(deltaMagic) && string(data[:len(deltaMagic)]) == deltaMagic
}

// SnapshotDigest is the canonical identity of a snapshot's content:
// the sha256 of its CodecBinary encoding. For a snapshot written with
// SaveSnapshot(..., CodecBinary) this equals the sha256 of the file
// bytes, so chain verification works against files without decoding.
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

// Attribute key encodings — identical to the intern keys (and table
// body encodings) of appendBinaryRoutes, so extension bodies are just
// the concatenated keys of the new entries.

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

func sameList[S ~[]E, E comparable](a, b S) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// routeCompare is Normalize's sort order (family, prefix address,
// prefix length, peer AS) — the delta merge key. It deliberately
// compares the parsed fields, not encoded bytes, so it agrees with
// Normalize for every representable route.
func routeCompare(a, b *bgp.Route) int {
	av6, bv6 := a.IsIPv6(), b.IsIPv6()
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
	ap, bp := a.PeerAS(), b.PeerAS()
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
			return fmt.Errorf("collector: delta endpoint not normalized (route %d out of order); call Snapshot.Normalize first", i)
		}
	}
	return nil
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
// A day costs at most one keying pass, and for the routes that did not
// change not even that: the merge walk pairs each of day N's routes
// with day N-1's route for the same (prefix, peer), and a pair whose
// attributes compare equal takes over yesterday's chain ids without
// building a key; only added and re-tagged routes are interned. Day N's
// SnapshotDigest — the sha256 of a binary encoding nobody asked for —
// is then produced from those ids: a dense chain-id → first-appearance
// renumbering, table bodies copied from the keys the chain tables
// already hold, the column writer the binary codec uses. Nothing is
// hashed into fresh intern maps a second time.
type DeltaEncoder struct {
	tabs    *deltaTables
	prev    *Snapshot
	prevIDs []rowIDs
	digest  [sha256.Size]byte

	// Scratch reused from day to day. None of it is day-sized: the
	// binary encoding behind the digest is allocated per day (binSize
	// remembers how large) so an idle encoder pins only its state.
	scratch []byte
	hdr     []byte
	ops     []byte
	local   localIDs
	binSize int
}

// NewDeltaEncoder starts a chain at base, which must be normalized
// (Normalize-sorted routes). The chain id space starts as base's
// canonical intern tables — identical to its CodecBinary table order.
func NewDeltaEncoder(base *Snapshot) (*DeltaEncoder, error) {
	if err := checkRouteOrder(base.Routes); err != nil {
		return nil, err
	}
	e := &DeltaEncoder{tabs: newDeltaTables()}
	e.prevIDs = make([]rowIDs, len(base.Routes))
	for i := range base.Routes {
		e.prevIDs[i], e.scratch = e.tabs.internRoute(e.scratch, &base.Routes[i], nil)
	}
	e.prev = base
	e.hdr = appendHeaderSection(e.hdr[:0], base)
	e.digest = e.digestOf(base, e.prevIDs)
	return e, nil
}

// digestOf is SnapshotDigest(s) for a snapshot whose header section is
// in e.hdr and whose rows resolve to ids in the chain tables.
func (e *DeltaEncoder) digestOf(s *Snapshot, ids []rowIDs) [sha256.Size]byte {
	e.local.build(e.tabs, ids)
	// Sized by yesterday's encoding, or for a first day by a typical
	// ~90 bytes a route.
	buf := make([]byte, 0, max(e.binSize+e.binSize/16, 96*len(s.Routes))+1024)
	buf = append(buf, binaryMagic...)
	buf = appendUvarint(buf, binaryVersion)
	buf = appendUvarint(buf, uint64(len(e.hdr)))
	buf = append(buf, e.hdr...)
	buf = appendRouteBlock(buf, s.Routes, ids, e.tabs, &e.local)
	e.binSize = len(buf)
	return sha256.Sum256(buf)
}

// Base returns the snapshot the next Encode will diff against.
func (e *DeltaEncoder) Base() *Snapshot { return e.prev }

// BaseDigest returns the chain digest of the current base.
func (e *DeltaEncoder) BaseDigest() [sha256.Size]byte { return e.digest }

// Encode emits next as a delta against the encoder's current base
// and makes next the new base. next must be normalized and is
// retained by the encoder.
func (e *DeltaEncoder) Encode(next *Snapshot) ([]byte, error) {
	t0 := codecTel().now()
	if err := checkRouteOrder(next.Routes); err != nil {
		return nil, err
	}
	base := e.prev
	baseSizes := e.tabs.sizes()

	// Merge walk over the two sorted route slices, resolving day N's
	// chain ids and emitting ops as it goes. First-seen values become
	// the table extensions, in day-N first-appearance order (a route
	// equal to its base counterpart cannot carry one). Duplicate
	// (prefix, peer) keys — possible in principle — pair up one-to-one
	// in order on both sides.
	var (
		ext                         tableExt
		nextIDs                     = make([]rowIDs, len(next.Routes))
		ops                         = e.ops[:0]
		run                         uint64
		copies, adds, dels, changes int64
	)
	flushRun := func() {
		if run > 0 {
			ops = append(ops, byte(DeltaCopy))
			ops = appendUvarint(ops, run)
			run = 0
			copies++
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
			dels++
			i++
		case c > 0: // only in next → announced
			nextIDs[j], e.scratch = e.tabs.internRoute(e.scratch, &next.Routes[j], &ext)
			flushRun()
			ops = append(ops, byte(DeltaAdd))
			ops = appendOpPrefix(ops, &next.Routes[j])
			ops = appendAttrs(ops, nextIDs[j], &next.Routes[j])
			adds++
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
				changes++
			}
			i++
			j++
		}
	}
	flushRun()
	e.ops = ops

	// Header: chain linkage (dates, digests, route counts) plus day
	// N's full snapshot header section, so a DeltaReader can answer
	// Header() — and analysis can see day N's member list — without
	// the base.
	e.hdr = appendHeaderSection(e.hdr[:0], next)
	self := e.digestOf(next, nextIDs)
	hdr := appendString(e.scratch[:0], base.Date)
	hdr = append(hdr, e.digest[:]...)
	hdr = append(hdr, self[:]...)
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

	size := len(deltaMagic) + len(hdr) + len(ops) + 16*binary.MaxVarintLen64
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

	e.prev, e.prevIDs, e.digest = next, nextIDs, self
	codecTel().deltaEncoded(t0, int64(len(buf)), copies, adds, dels, changes)
	return buf, nil
}

// --- reader ---------------------------------------------------------------

// DeltaReader exposes a parsed delta — header, table extensions and
// the op stream — without materializing routes, mirroring RouteBlock.
// The extension tables are decoded eagerly (they are churn-sized, not
// table-sized); ops are decoded on each Ops call.
type DeltaReader struct {
	head       *Snapshot
	baseDate   string
	baseDigest [sha256.Size]byte
	selfDigest [sha256.Size]byte
	baseRoutes int
	nextRoutes int
	routesNil  bool

	baseSizes [numTabs]int
	ext       Tables

	ops []byte
}

// OpenDelta reads and parses a delta file.
func OpenDelta(path string) (*DeltaReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dr, err := NewDeltaReader(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dr, nil
}

// NewDeltaReader parses a delta from data, which must stay immutable
// and alive for the reader's lifetime (ops alias it).
func NewDeltaReader(data []byte) (*DeltaReader, error) {
	r := &breader{b: data}
	magic, err := r.bytes(len(deltaMagic))
	if err != nil || string(magic) != deltaMagic {
		return nil, errors.New("collector: not a snapshot delta (bad magic)")
	}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
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
	hr := &breader{b: hdrBytes}
	if d.baseDate, err = hr.string(); err != nil {
		return nil, err
	}
	bd, err := hr.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	copy(d.baseDigest[:], bd)
	sd, err := hr.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	copy(d.selfDigest[:], sd)
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
	if d.head, err = decodeHeaderSection(&breader{b: shBytes}); err != nil {
		return nil, err
	}
	if hr.remaining() != 0 {
		return nil, errDeltaCorrupt
	}

	if d.ext, err = decodeTables(r, &d.baseSizes, errDeltaCorrupt); err != nil {
		return nil, err
	}

	opsLen, err := r.count()
	if err != nil {
		return nil, err
	}
	if d.ops, err = r.bytes(opsLen); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, errDeltaCorrupt
	}
	return d, nil
}

// Header returns day N's header-only snapshot (Routes nil); callers
// must not mutate it.
func (d *DeltaReader) Header() *Snapshot { return d.head }

// BaseDate returns the Date of the snapshot this delta applies to.
func (d *DeltaReader) BaseDate() string { return d.baseDate }

// BaseDigest returns the required base's SnapshotDigest.
func (d *DeltaReader) BaseDigest() [sha256.Size]byte { return d.baseDigest }

// SelfDigest returns day N's SnapshotDigest — the BaseDigest the
// chain's next delta must carry.
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
	var op DeltaOp
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
		op = DeltaOp{Kind: DeltaOpKind(kind)}
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
		if err := fn(&op); err != nil {
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
	a := &DeltaApplier{tabs: newDeltaTables()}
	a.curIDs = make([]rowIDs, len(base.Routes))
	for i := range base.Routes {
		r := &base.Routes[i]
		var ids rowIDs
		ids, a.scratch = a.tabs.internRoute(a.scratch, r, nil)
		// An id one past a value table's end was assigned just now.
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
		a.curIDs[i] = ids
	}
	a.cur = base
	a.digest = SnapshotDigest(base)
	return a, nil
}

// Current returns the chain's latest materialized snapshot.
func (a *DeltaApplier) Current() *Snapshot { return a.cur }

// Digest returns the chain digest of the current snapshot.
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
// snapshot (digest-verified).
func (a *DeltaApplier) Apply(d *DeltaReader) (*Snapshot, error) {
	t0 := codecTel().now()
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

	next := *d.Header() // copy; Routes filled below
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
	err := d.Ops(func(op *DeltaOp) error {
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
	a.cur, a.curIDs, a.digest = &next, ids, d.SelfDigest()
	codecTel().deltaApplied(t0, len(routes))
	return &next, nil
}

// Encoder returns a DeltaEncoder continuing this chain: it shares the
// applier's id space and diffs against the applier's current
// snapshot. Used by cmd/collect to append today's crawl to an
// existing on-disk chain. The applier must not Apply further deltas
// once its encoder has Encoded (their states would diverge).
func (a *DeltaApplier) Encoder() *DeltaEncoder {
	return &DeltaEncoder{
		tabs:    a.tabs,
		prev:    a.cur,
		prevIDs: a.curIDs,
		digest:  a.digest,
	}
}
