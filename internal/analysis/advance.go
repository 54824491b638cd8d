// The one fold. Every Index is produced by the same code: a
// seriesState registers the input's interned attribute tables (dense
// community ids classified once each, per-set reductions, per-path
// peers) and applyRoute folds one route instance into — or, with sign
// -1, out of — the per-family aggregates and refcounts (dense arrays and
// the flat tables of counts.go: no allocation per route, no runtime map
// per community instance); materializeFam then derives the ranking maps
// and histogram from the refcounts, for a day that is served. A full
// build is that fold over every route of the input, an incremental
// build is the same fold over a delta's ops. Three thin sources feed it:
//
//   - RouteBlock.Scan, the columns of a CodecBinary snapshot
//     (IndexFromReader, IndexSeriesFromReader): the file's intern tables
//     are registered up front and each row applies by table index;
//   - DeltaReader.Ops, a day's delta (Index.Advance): the delta's table
//     extensions are registered and each op applies -1/+1;
//   - []bgp.Route, a materialized snapshot (NewIndex): each route is
//     registered as a one-row table of its own and applied.
//
// The chain state is kept only where something can advance it.
// IndexSeriesFromReader leaves it on the index it returns, owned by the
// chain's newest day; NewIndex and IndexFromReader drop it before
// returning, so a standalone index holds its aggregates and nothing
// else. A chained day starts counts-only: Counts and DayCounts answer,
// and nothing else does, because the daily series is read only for its
// per-day counts. Advance
// patches the per-family scalars and the two per-AS maps — moved from a
// counts-only predecessor, cloned (runtime map cloning, not
// re-insertion) from a materialized one, which may still be served —
// and builds no ranking map, histogram or member set. Materialize builds
// those for the one day that is served, while that day still owns the
// chain state. Every earlier day's index therefore keeps answering what
// it answered — a counts-only day never reads the maps it handed on —
// and stays concurrently usable, what the report loader's per-IXP chain
// fold relies on, while only the owner may advance or materialize.
//
// Correctness is held from outside the fold: the *Direct functions in
// oracle_test.go re-walk a materialized snapshot and re-classify every
// community instance per analysis, sharing no code with the fold, and
// every source and every advanced day is compared with them — on every
// accessor once materialized, on Counts before (the equivalence tests,
// FuzzIndexFromColumns, FuzzAdvance).
package analysis

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// extSum is the member-independent reduction of one interned
// extended-community set: applying a route that references the set
// adds these numbers to the family's mix/flavour aggregates.
type extSum struct {
	n, defined, unknown, action, info int32
}

// largeSum is the same reduction for a large-community set, plus the
// §5.2 wide-target tally.
type largeSum struct {
	n, defined, unknown, action, info, wide int32
}

// seriesFam is one family's chain-lifetime reference counts — the
// state that lets removals undo exactly what additions did, and lets
// membership flips re-attribute non-member aggregates without
// revisiting routes.
type seriesFam struct {
	// idRefs counts live instances per dense action id — exactly the
	// per-community ranking data, kept dense so the op fold pays an
	// array increment instead of a map update per instance.
	idRefs []int32
	// idPeerRefs counts live instances per (peer-targeting action id,
	// announcing peer), a flat table keyed id<<32 | peer — the culprit
	// attribution, re-aggregated per day against that day's member list.
	idPeerRefs pairCounts
	// peerTypes counts live action instances per (peer, action type);
	// typeASes increments on 0→1 and decrements on 1→0.
	peerTypes map[uint32]*[numActionTypes]int32
	// prefixRefs counts live routes per encoded prefix in a flat table;
	// the family's distinct-prefix count is its live-entry count.
	prefixRefs prefixCounts
	// commHist counts live routes per total community count, indexed by
	// the count; materializeFam turns it into the index's §5.6 map.
	commHist []int32
	// The sizes of the last materialized day's non-member, culprit and
	// histogram maps: the next materialization's size hints, since the
	// tables bound none of the three.
	nonMemberHint, culpritHint, histHint int
}

// idFacts is what the fold reads of one dense id's classification:
// whether the IXP defines the value, its action type in the low bits,
// and whether the action targets one peer. A byte instead of a
// dictionary.Class (24 bytes), on a table with one entry per distinct
// community value.
type idFacts uint8

const (
	idKnown idFacts = 1 << 7
	idPeer  idFacts = 1 << 6
	idType  idFacts = idPeer - 1
)

func factsOf(cl dictionary.Class) idFacts {
	f := idFacts(cl.Action) & idType
	if cl.Known {
		f |= idKnown
	}
	if cl.Target == dictionary.TargetPeer {
		f |= idPeer
	}
	return f
}

func (f idFacts) action() dictionary.ActionType { return dictionary.ActionType(f & idType) }

// seriesState is the fold's lookup state: what a route's table indexes
// mean. Along a delta chain it is shared by the chain's days and
// single-writer: only the owner index's Advance mutates it, and the
// per-day indexes never read it after construction.
type seriesState struct {
	scheme *dictionary.Scheme
	owner  *Index
	digest [sha256.Size]byte
	// sizes tracks the chain table sizes in delta wire order
	// (next-hops, AS paths, community sets, extended sets, large
	// sets), verified against every delta's base sizes.
	sizes [5]int

	// Dense ids for distinct standard community values, in
	// first-appearance order; each is classified exactly once. idSlots
	// is the open-addressed value → id table: a slot holds id+1 (0 =
	// empty) and the value it stands for is idComm[id]. A bare uint32
	// key needs no hashing beyond one multiply, a slot is four bytes,
	// and the lookup was a third of a full build's time as a builtin map.
	idSlots []uint32
	idShift uint8 // 32 - log2(len(idSlots))
	idComm  []bgp.Community
	idFacts []idFacts
	// idNonMember is materializeFam's scratch: whether the id targets an
	// AS outside the day's member list. Only peer-targeting ids are set.
	idNonMember []bool

	// actionIDs lists the action-classified ids in registration order —
	// the iteration domain of the per-day aggregate materialization.
	actionIDs []int32

	extClasses   map[bgp.ExtendedCommunity]dictionary.Class
	largeClasses map[bgp.LargeCommunity]dictionary.Class

	// Community sets as CSR runs of dense ids (set id → ids); ext/large
	// sets reduced to their member-independent sums; paths reduced to
	// their announcing peer.
	setOff    []int32
	setIDs    []int32
	extSets   []extSum
	largeSets []largeSum
	pathPeer  []uint32

	// targetIDs lists the peer-targeting action ids per target ASN —
	// the grouping the per-day materialization walks to rebuild the
	// target and non-member aggregates against that day's member list.
	targetIDs map[uint32][]int32

	fam [2]seriesFam
}

// newFold starts an empty index over head (a snapshot header: the
// fold never reads head.Routes) together with the state that folds
// routes into it. routes and values size the prefix refcounts and the
// community id table from the input.
func newFold(head *collector.Snapshot, scheme *dictionary.Scheme, routes, values int) (*seriesState, *Index) {
	st := &seriesState{
		scheme:       scheme,
		extClasses:   make(map[bgp.ExtendedCommunity]dictionary.Class),
		largeClasses: make(map[bgp.LargeCommunity]dictionary.Class),
		targetIDs:    make(map[uint32][]int32),
		setOff:       []int32{0},
	}
	st.growIDs(values)
	peers := len(head.Members)
	for f := range st.fam {
		sf := &st.fam[f]
		sf.peerTypes = make(map[uint32]*[numActionTypes]int32, peers)
		sf.prefixRefs.init(routes / 2)
	}
	ix := &Index{snap: head, scheme: scheme, series: st, countsOnly: true}
	for f := range ix.fam {
		fam := &ix.fam[f]
		fam.perASActions = make(map[uint32]int, peers)
		fam.perASRoutes = make(map[uint32]int, peers)
	}
	ix.countMembers()
	st.owner = ix
	return st, ix
}

// countMembers sets each family's Fig. 4a member denominator from the
// index's snapshot header.
func (ix *Index) countMembers() {
	ix.fam[0].usage.MembersAtRS, ix.fam[1].usage.MembersAtRS = 0, 0
	for _, m := range ix.snap.Members {
		if m.IPv4 {
			ix.fam[0].usage.MembersAtRS++
		}
		if m.IPv6 {
			ix.fam[1].usage.MembersAtRS++
		}
	}
}

// growIDs resizes the id table to hold n values below ¾ load and
// re-inserts the registered ids.
func (st *seriesState) growIDs(n int) {
	size := 8
	for 3*size < 4*n {
		size <<= 1
	}
	st.idSlots = make([]uint32, size)
	st.idShift = uint8(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for id, c := range st.idComm {
		h := st.idHash(c)
		for st.idSlots[h] != 0 {
			h = (h + 1) & mask
		}
		st.idSlots[h] = uint32(id) + 1
	}
}

// idHash spreads community values over the table (Fibonacci hashing;
// the top bits, because the values differ mostly in theirs).
func (st *seriesState) idHash(c bgp.Community) uint32 {
	return (uint32(c) * 0x9e3779b1) >> st.idShift
}

// commID returns c's dense id, classifying and registering the value
// on first sight.
func (st *seriesState) commID(c bgp.Community) int32 {
	mask := uint32(len(st.idSlots) - 1)
	h := st.idHash(c)
	for ; st.idSlots[h] != 0; h = (h + 1) & mask {
		if id := int32(st.idSlots[h] - 1); st.idComm[id] == c {
			return id
		}
	}
	if 4*(len(st.idComm)+1) > 3*len(st.idSlots) {
		st.growIDs(2 * len(st.idComm))
		return st.commID(c)
	}
	id := int32(len(st.idComm))
	st.idSlots[h] = uint32(id) + 1
	cl := st.scheme.Classify(c)
	st.idComm = append(st.idComm, c)
	st.idFacts = append(st.idFacts, factsOf(cl))
	st.idNonMember = append(st.idNonMember, false)
	if cl.IsAction() {
		st.actionIDs = append(st.actionIDs, id)
		if cl.Target == dictionary.TargetPeer {
			st.targetIDs[cl.TargetASN] = append(st.targetIDs[cl.TargetASN], id)
		}
	}
	for f := range st.fam {
		st.fam[f].idRefs = append(st.fam[f].idRefs, 0)
	}
	return id
}

// registerCommSet appends one interned community set to the tables as
// a CSR run of dense ids.
func (st *seriesState) registerCommSet(set []bgp.Community) {
	for _, c := range set {
		st.setIDs = append(st.setIDs, st.commID(c))
	}
	st.setOff = append(st.setOff, int32(len(st.setIDs)))
}

func (st *seriesState) registerExtSet(set []bgp.ExtendedCommunity) {
	s := extSum{n: int32(len(set))}
	for _, e := range set {
		cl, ok := st.extClasses[e]
		if !ok {
			cl = st.scheme.ClassifyExtended(e)
			st.extClasses[e] = cl
		}
		switch {
		case !cl.Known:
			s.unknown++
		case cl.Action.IsAction():
			s.defined++
			s.action++
		default:
			s.defined++
			s.info++
		}
	}
	st.extSets = append(st.extSets, s)
}

func (st *seriesState) registerLargeSet(set []bgp.LargeCommunity) {
	s := largeSum{n: int32(len(set))}
	for _, l := range set {
		cl, ok := st.largeClasses[l]
		if !ok {
			cl = st.scheme.ClassifyLarge(l)
			st.largeClasses[l] = cl
		}
		switch {
		case !cl.Known:
			s.unknown++
		case cl.Action.IsAction():
			s.defined++
			s.action++
			if cl.Target == dictionary.TargetPeer && cl.TargetASN > 0xFFFF {
				s.wide++
			}
		default:
			s.defined++
			s.info++
		}
	}
	st.largeSets = append(st.largeSets, s)
}

// registerTables appends a source's interned attribute tables — a
// route block's, or a delta's extensions — in wire order.
func (st *seriesState) registerTables(t *collector.Tables) {
	paths, comms, exts, larges := t.ASPaths, t.CommunitySets, t.ExtCommunitySets, t.LargeCommunitySets
	elems := 0
	for _, set := range comms {
		elems += len(set)
	}
	st.setIDs = slices.Grow(st.setIDs, elems)
	st.setOff = slices.Grow(st.setOff, len(comms))
	st.extSets = slices.Grow(st.extSets, len(exts))
	st.largeSets = slices.Grow(st.largeSets, len(larges))
	st.pathPeer = slices.Grow(st.pathPeer, len(paths))
	for _, set := range comms {
		st.registerCommSet(set)
	}
	for _, set := range exts {
		st.registerExtSet(set)
	}
	for _, set := range larges {
		st.registerLargeSet(set)
	}
	for _, p := range paths {
		st.pathPeer = append(st.pathPeer, p.Neighbor())
	}
	st.sizes[0] += len(t.NextHops)
	st.sizes[1] += len(paths)
	st.sizes[2] += len(comms)
	st.sizes[3] += len(exts)
	st.sizes[4] += len(larges)
}

// mapAdd adds n to m[k] and never stores a zero: entries reaching zero
// are deleted, so incrementally patched maps stay equal (not just
// equivalent) to freshly built ones.
func mapAdd[K comparable](m map[K]int, k K, n int) {
	if v := m[k] + n; v == 0 {
		delete(m, k)
	} else {
		m[k] = v
	}
}

// applyRoute folds one route instance into (sign +1) or out of
// (sign -1) ix's family-f aggregates. It is the only code that writes
// familyStats from route data (finalize derives the rest), so every
// aggregate moves by exactly what the route contributes whichever
// source delivered it.
func (st *seriesState) applyRoute(ix *Index, f int, prefix []byte, commSet, extSet, largeSet, path, sign int) {
	fam := &ix.fam[f]
	peer := st.pathPeer[path]

	fam.usage.RoutesTotal += sign
	mapAdd(fam.perASRoutes, peer, sign)
	st.fam[f].prefixRefs.add(prefix, int32(sign))

	st.applyAttrs(ix, f, commSet, extSet, largeSet, path, sign)
}

// applyAttrs is applyRoute without the route-level terms (RoutesTotal,
// per-AS route counts, prefix refcounts). A DeltaChange keeps the
// route's prefix and peer, so those terms cancel between its -1/+1
// pair by construction — and an attribute change that leaves all
// three community sets alone (a MED flap, a next-hop move) touches no
// aggregate at all.
//
// The per-id fold updates only scalars, dense refcount arrays and the
// per-(id, peer) refcounts; the ranking maps (actionComms, targets,
// the non-member aggregates) are pure functions of those refcounts and
// the day's member list, so they are materialized once, for the day
// that is served (materializeFam), instead of being patched per
// instance — a served day costs O(distinct action ids) map inserts, a
// folded-through one none.
func (st *seriesState) applyAttrs(ix *Index, f int, commSet, extSet, largeSet, path, sign int) {
	fam := &ix.fam[f]
	sf := &st.fam[f]
	peer := st.pathPeer[path]

	setIDs := st.setIDs[st.setOff[commSet]:st.setOff[commSet+1]]
	es := &st.extSets[extSet]
	ls := &st.largeSets[largeSet]

	cc := len(setIDs) + int(es.n) + int(ls.n)
	if cc >= len(sf.commHist) {
		sf.commHist = append(sf.commHist, make([]int32, cc+1-len(sf.commHist))...)
	}
	sf.commHist[cc] += int32(sign)
	fam.commInstances += cc * sign

	fam.mix.DefinedExtended += int(es.defined) * sign
	fam.mix.UnknownExtended += int(es.unknown) * sign
	fam.flavour.ExtendedAction += int(es.action) * sign
	fam.flavour.ExtendedInfo += int(es.info) * sign
	fam.mix.DefinedLarge += int(ls.defined) * sign
	fam.mix.UnknownLarge += int(ls.unknown) * sign
	fam.flavour.LargeAction += int(ls.action) * sign
	fam.flavour.LargeInfo += int(ls.info) * sign
	fam.flavour.LargeWideTargets += int(ls.wide) * sign

	actions := 0
	var pt *[numActionTypes]int32 // the peer's type counts, fetched once
	for _, id := range setIDs {
		facts := st.idFacts[id]
		if facts&idKnown == 0 {
			fam.mix.UnknownStandard += sign
			continue
		}
		fam.mix.DefinedStandard += sign
		act := facts.action()
		if !act.IsAction() {
			fam.flavour.StandardInfo += sign
			continue
		}
		fam.flavour.StandardAction += sign
		actions++
		sf.idRefs[id] += int32(sign)
		fam.occ[act] += sign
		if pt == nil {
			pt = sf.peerTypes[peer]
			if pt == nil {
				pt = new([numActionTypes]int32)
				sf.peerTypes[peer] = pt
			}
		}
		prev := pt[act]
		pt[act] = prev + int32(sign)
		if prev == 0 && sign > 0 {
			fam.typeASes[act]++
		} else if prev == 1 && sign < 0 {
			fam.typeASes[act]--
		}
		if facts&idPeer != 0 {
			sf.idPeerRefs.add(uint64(id)<<32|uint64(peer), int32(sign))
		}
	}
	if actions > 0 {
		fam.usage.RoutesTagged += sign
		fam.usage.ActionInstances += actions * sign
		mapAdd(fam.perASActions, peer, actions*sign)
	}
}

// materializeFam derives one family's ranking maps and §5.6 histogram
// from the refcounts. An action community's instance count is its id's
// refcount, a target ASN's count is the sum over its ids, and the §5.5
// non-member aggregates are the target sums restricted to ASNs outside
// the day's member list — so membership churn needs no per-route work
// at all, the materialization simply reads the day's member list.
// Zero-refcount entries are skipped (the never-stores-zero map shape).
// The two non-member maps and the histogram have no bound in the
// tables, so they are sized like the chain's last materialized day's
// (none on a full build).
func (st *seriesState) materializeFam(ix *Index, f int) {
	sf := &st.fam[f]
	fam := &ix.fam[f]

	actionComms := make(map[bgp.Community]int, len(st.actionIDs))
	for _, id := range st.actionIDs {
		if n := sf.idRefs[id]; n != 0 {
			actionComms[st.idComm[id]] = int(n)
		}
	}

	targets := make(map[uint32]int, len(st.targetIDs))
	nonMemberComms := make(map[bgp.Community]int, sf.nonMemberHint)
	culprits := make(map[uint32]int, sf.culpritHint)
	nonMemberInstances := 0
	for asn, ids := range st.targetIDs {
		total := 0
		for _, id := range ids {
			total += int(sf.idRefs[id])
		}
		if total != 0 {
			targets[asn] = total
		}
		nonMember := !ix.members[asn]
		for _, id := range ids {
			st.idNonMember[id] = nonMember
			if n := int(sf.idRefs[id]); n != 0 && nonMember {
				nonMemberComms[st.idComm[id]] = n
				nonMemberInstances += n
			}
		}
	}
	for e, cnt := range sf.idPeerRefs.counts {
		if key := sf.idPeerRefs.keys[e]; cnt != 0 && st.idNonMember[key>>32] {
			culprits[uint32(key)] += int(cnt)
		}
	}
	commHist := make(map[int]int, sf.histHint)
	for c, routes := range sf.commHist {
		if routes != 0 {
			commHist[c] = int(routes)
		}
	}
	sf.nonMemberHint, sf.culpritHint, sf.histHint = len(nonMemberComms), len(culprits), len(commHist)
	fam.commHist = commHist
	fam.actionComms = actionComms
	fam.targets = targets
	fam.nonMemberComms = nonMemberComms
	fam.culprits = culprits
	fam.nonMemberInstances = nonMemberInstances
}

// count sets the per-day scalars the fold does not patch per route:
// the ASes-using count and the distinct-prefix count. Every day gets
// them at the day boundary, so Counts answers on a counts-only day.
func (st *seriesState) count(ix *Index) {
	for f := range ix.fam {
		ix.fam[f].usage.ASesUsing = len(ix.fam[f].perASActions)
		ix.fam[f].prefixes = st.fam[f].prefixRefs.live
	}
}

// Materialize builds the classified aggregates of a counts-only day —
// its ranking maps, §5.6 histogram and member set — from the chain
// state, so every accessor answers. It is owner-only: the chain's
// newest day can materialize, a day some Advance has superseded cannot
// (the refcounts have moved on), and a standalone index is already
// materialized. Like Advance it writes the index, so call it before the
// index is shared; once materialized, it returns nil and does nothing.
func (ix *Index) Materialize() error {
	if !ix.countsOnly {
		return nil
	}
	if ix.series.owner != ix {
		return errors.New("analysis: Materialize on a superseded day; only the chain's newest index can materialize")
	}
	ix.series.materialize(ix)
	return nil
}

// materialize builds ix's member set and both families' classified
// maps; ix is the chain state's owner.
func (st *seriesState) materialize(ix *Index) {
	ix.members = ix.snap.MemberSet()
	for f := range ix.fam {
		st.materializeFam(ix, f)
	}
	ix.countsOnly = false
}

// carryFam starts the next day's family aggregates from src: every
// scalar and the two per-AS maps, which the next day's ops patch. A
// counts-only src hands its maps over — nothing reads them again — and
// a materialized one, which may still be served, keeps them and hands
// over runtime-level clones (maps.Clone: memory bandwidth, not
// re-insertion). The maps are sized by announcing peers, not by routes
// or distinct communities. The ranking maps and histogram stay behind.
func carryFam(src *familyStats, countsOnly bool) familyStats {
	dst := *src
	dst.commHist, dst.actionComms, dst.targets, dst.nonMemberComms, dst.culprits = nil, nil, nil, nil, nil
	dst.nonMemberInstances = 0
	if !countsOnly {
		dst.perASActions = maps.Clone(src.perASActions)
		dst.perASRoutes = maps.Clone(src.perASRoutes)
	}
	return dst
}

// NewIndex builds the classified index for one materialized snapshot
// under one scheme: the fold over s.Routes, on the calling goroutine.
func NewIndex(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	defer tel().building("routes", s)()
	st, ix := newFold(s, scheme, len(s.Routes), len(s.Routes))
	var key [18]byte
	for i := range s.Routes {
		r := &s.Routes[i]
		// A materialized route carries its attributes, not table
		// indexes: it becomes the only row of the tables.
		st.setIDs, st.setOff = st.setIDs[:0], st.setOff[:1]
		st.extSets, st.largeSets, st.pathPeer = st.extSets[:0], st.largeSets[:0], st.pathPeer[:0]
		st.registerCommSet(r.Communities)
		st.registerExtSet(r.ExtCommunities)
		st.registerLargeSet(r.LargeCommunities)
		st.pathPeer = append(st.pathPeer, r.PeerAS())

		// Any injective encoding keys the prefix refcounts.
		addr := r.Prefix.Addr()
		a16 := addr.As16()
		copy(key[:], a16[:])
		key[16] = byte(r.Prefix.Bits())
		key[17] = byte(addr.BitLen() / 32) // 0 invalid, 1 IPv4, 4 IPv6: As16 maps IPv4 into IPv6
		f := 0
		if r.IsIPv6() {
			f = 1
		}
		st.applyRoute(ix, f, key[:], 0, 0, 0, 0, 1)
	}
	st.count(ix)
	st.materialize(ix)
	ix.series = nil
	return ix
}

// IndexFromReader builds the classified index for one snapshot
// straight off its columnar route block, with no []bgp.Route
// materialization.
//
// The resulting Index owns all its storage: it stays valid after the
// reader is closed. Its embedded snapshot is header-only (Routes nil):
// the index, not the snapshot, is what answers for the day, its series
// counts included (DayCounts).
func IndexFromReader(sr *collector.SnapshotReader, scheme *dictionary.Scheme) (*Index, error) {
	ix, err := indexFromColumns(sr, scheme)
	if err != nil {
		return nil, err
	}
	ix.series.materialize(ix)
	ix.series = nil
	return ix, nil
}

// IndexSeriesFromReader is IndexFromReader for a delta chain's base
// snapshot: the same fold, with the chain state kept on the returned
// index so Index.Advance can patch it, and the index left counts-only
// like every chained day: Materialize it if it is to be served. The
// chain digest is the file's own sha256.
func IndexSeriesFromReader(sr *collector.SnapshotReader, scheme *dictionary.Scheme) (*Index, error) {
	ix, err := indexFromColumns(sr, scheme)
	if err != nil {
		return nil, err
	}
	ix.series.digest = sr.Digest()
	return ix, nil
}

// indexFromColumns is the fold over a binary snapshot's route block; it
// returns a counts-only index.
func indexFromColumns(sr *collector.SnapshotReader, scheme *dictionary.Scheme) (*Index, error) {
	defer tel().building("columns", sr.Header())()
	rb, err := sr.RouteBlock()
	if err != nil {
		return nil, err
	}
	head := *sr.Header() // private copy; Routes stays nil
	st, ix := newFold(&head, scheme, rb.NumRoutes(), len(rb.Tables().CommunitySets))
	// The binary file's table order is canonical first-appearance
	// order — the same order a DeltaEncoder starting from this
	// snapshot interns, so chain ids agree by construction.
	st.registerTables(rb.Tables())
	err = rb.Scan(func(ref *collector.RouteRef) error {
		f := 0
		if ref.V6 {
			f = 1
		}
		st.applyRoute(ix, f, ref.PrefixBytes,
			ref.Communities, ref.ExtCommunities, ref.LargeCommunities, ref.Path, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.count(ix)
	return ix, nil
}

// Advance derives day N's index from this one (day N-1) by applying a
// delta's table extensions and op stream to the carried aggregates.
// Only the chain's newest index may advance, and the delta must extend
// exactly this index's snapshot (digest- and table-size-verified);
// earlier days' indexes stay valid and immutable. Day N is counts-only:
// Materialize it before Advance supersedes it if it is to be served.
// If Advance returns a non-mismatch error partway through, the chain
// state is undefined and the series must be rebuilt from its base.
func (ix *Index) Advance(d *collector.DeltaReader) (*Index, error) {
	st := ix.series
	if st == nil {
		return nil, errors.New("analysis: Advance requires a series index (IndexSeriesFromReader)")
	}
	if st.owner != ix {
		return nil, errors.New("analysis: Advance on a superseded day; only the chain's newest index may advance")
	}
	if bd := d.BaseDigest(); bd != st.digest {
		return nil, fmt.Errorf("%w: delta for %q does not extend this index's snapshot",
			collector.ErrDeltaBaseMismatch, d.BaseDate())
	}
	if sizes := d.BaseTableSizes(); sizes != st.sizes {
		return nil, fmt.Errorf("%w: delta expects table sizes %v, chain has %v",
			collector.ErrDeltaBaseMismatch, sizes, st.sizes)
	}
	defer tel().building("delta", d.Header())()

	head := *d.Header() // private copy; Routes stays nil
	next := &Index{snap: &head, scheme: st.scheme, series: st, countsOnly: true}
	for f := range next.fam {
		next.fam[f] = carryFam(&ix.fam[f], ix.countsOnly)
	}
	// Membership churn needs no aggregate surgery: the member-sensitive
	// aggregates are materialized against the day's own member list.
	next.countMembers()

	st.registerTables(d.Tables())

	err := d.Ops(func(op *collector.DeltaOp) error {
		f := 0
		if op.V6 {
			f = 1
		}
		switch op.Kind {
		case collector.DeltaDel:
			st.applyRoute(next, f, op.PrefixBytes,
				op.Old.Communities, op.Old.ExtCommunities, op.Old.LargeCommunities, op.Old.Path, -1)
		case collector.DeltaAdd:
			st.applyRoute(next, f, op.PrefixBytes,
				op.New.Communities, op.New.ExtCommunities, op.New.LargeCommunities, op.New.Path, 1)
		case collector.DeltaChange:
			// A change keeps the route's merge key (prefix + peer), so
			// the route-level aggregates are untouched; and when the
			// community sets are also unchanged (MED flap, next-hop
			// move) the whole op is index-invisible. The peer check is
			// defensive: a path swap across peers falls back to the
			// full del+add pair.
			if op.Old.Communities == op.New.Communities &&
				op.Old.ExtCommunities == op.New.ExtCommunities &&
				op.Old.LargeCommunities == op.New.LargeCommunities {
				break
			}
			if st.pathPeer[op.Old.Path] != st.pathPeer[op.New.Path] {
				st.applyRoute(next, f, op.PrefixBytes,
					op.Old.Communities, op.Old.ExtCommunities, op.Old.LargeCommunities, op.Old.Path, -1)
				st.applyRoute(next, f, op.PrefixBytes,
					op.New.Communities, op.New.ExtCommunities, op.New.LargeCommunities, op.New.Path, 1)
				break
			}
			st.applyAttrs(next, f,
				op.Old.Communities, op.Old.ExtCommunities, op.Old.LargeCommunities, op.Old.Path, -1)
			st.applyAttrs(next, f,
				op.New.Communities, op.New.ExtCommunities, op.New.LargeCommunities, op.New.Path, 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	st.digest = d.SelfDigest()
	st.count(next)
	st.owner = next
	return next, nil
}
