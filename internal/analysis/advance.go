// Incremental index maintenance over snapshot delta chains: instead
// of rebuilding the classified Index from scratch for every day of a
// daily series, day N's index is derived from day N-1's by applying a
// delta's op stream (collector.DeltaReader) to the dense-id
// aggregates — decrementing for removed and changed-away routes,
// incrementing for added and changed-to ones, and classifying only
// the community values first seen in the delta's table extensions.
// Per-day cost scales with churn, not with table size.
//
// The chain's shared lookup state (dense community ids with their
// classes, per-set reductions, per-path peers, reference counts) lives
// in a seriesState owned by the chain's newest index; a day's index
// never reads it after construction. What a day owns is small: each
// Advance clones the three incrementally patched aggregate maps (the
// community-count histogram and the two per-AS counts — runtime map
// cloning, not re-insertion) and materializes its ranking maps afresh,
// and nothing else is copied per day — Index.Class answers from the
// scheme, so no classification table travels with an index. Every
// earlier day's index therefore stays immutable and concurrently
// usable — what Stability's per-day fan-out and the report loader's
// per-IXP chain fold rely on — while only the owner may advance
// further.
//
// Equivalence is by construction: day 0 replays every route of the
// base snapshot through the same applyRoute that the deltas use, and
// applyRoute mirrors indexShard.addRoute instance by instance, so a
// chained index answers every accessor identically to a full rebuild
// of the materialized day (pinned per accessor by the equivalence
// tests). The one representational difference is the §5.6 per-route
// community-count distribution, carried as a histogram
// (familyStats.commHist) because a positional slice cannot be patched
// under arbitrary-position edits; both consumers are
// order-independent.
package analysis

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"time"

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
	// announcing peer) — the culprit attribution, re-aggregated per day
	// against that day's member list.
	idPeerRefs map[int32]map[uint32]int32
	// peerTypes counts live action instances per (peer, action type);
	// typeASes increments on 0→1 and decrements on 1→0.
	peerTypes map[uint32]*[numActionTypes]int32
	// prefixRefs counts live routes per encoded prefix; the family's
	// distinct-prefix count is its length.
	prefixRefs map[string]int32
}

// seriesState is the chain state shared along one delta chain. It is
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

	// Dense ids for distinct standard community values, in chain
	// first-appearance order; each is classified exactly once.
	commID  map[bgp.Community]int32
	idComm  []bgp.Community
	idClass []dictionary.Class
	idFlags []uint8 // idFlagAction

	// actionIDs lists the action-classified ids in registration order —
	// the iteration domain of the per-day aggregate materialization.
	actionIDs []int32

	extClasses   map[bgp.ExtendedCommunity]dictionary.Class
	largeClasses map[bgp.LargeCommunity]dictionary.Class

	// Community sets as CSR runs of dense ids (chain set id → ids);
	// ext/large sets reduced to their member-independent sums; paths
	// reduced to their announcing peer.
	setOff    []int32
	setIDs    []int32
	extSets   []extSum
	largeSets []largeSum
	pathPeer  []uint32

	// targetIDs lists the peer-targeting action ids per target ASN —
	// the grouping the per-day materialization walks to rebuild the
	// target and non-member aggregates against that day's member list.
	targetIDs map[uint32][]int32

	members map[uint32]bool
	fam     [2]seriesFam
}

// registerCommSet appends one interned community set to the chain:
// new values are classified and get the next dense id, and the set
// becomes a CSR run of ids.
func (st *seriesState) registerCommSet(set []bgp.Community) {
	for _, c := range set {
		id, ok := st.commID[c]
		if !ok {
			cl := st.scheme.Classify(c)
			id = int32(len(st.idComm))
			st.commID[c] = id
			st.idComm = append(st.idComm, c)
			st.idClass = append(st.idClass, cl)
			var flags uint8
			if cl.Known && cl.Action.IsAction() {
				flags = idFlagAction
				st.actionIDs = append(st.actionIDs, id)
				if cl.Target == dictionary.TargetPeer {
					st.targetIDs[cl.TargetASN] = append(st.targetIDs[cl.TargetASN], id)
				}
			}
			st.idFlags = append(st.idFlags, flags)
			for f := range st.fam {
				st.fam[f].idRefs = append(st.fam[f].idRefs, 0)
			}
		}
		st.setIDs = append(st.setIDs, id)
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

// mapAdd adds n to m[k] with NewIndex's never-stores-zero invariant:
// entries reaching zero are deleted, so incrementally patched maps
// stay equal (not just equivalent) to rebuilt ones.
func mapAdd[K comparable](m map[K]int, k K, n int) {
	if v := m[k] + n; v == 0 {
		delete(m, k)
	} else {
		m[k] = v
	}
}

// prefixAdd is mapAdd over an encoded-prefix refcount; the string
// conversion only allocates on insertion.
func prefixAdd(m map[string]int32, key []byte, sign int) {
	if v := m[string(key)] + int32(sign); v == 0 {
		delete(m, string(key))
	} else {
		m[string(key)] = v
	}
}

// applyRoute folds one route instance into (sign +1) or out of
// (sign -1) ix's family-f aggregates. It mirrors indexShard.addRoute
// per instance — every aggregate a route contributes on the full
// rebuild path moves by exactly that contribution here — which is
// what keeps chained indexes accessor-identical to rebuilds.
func (st *seriesState) applyRoute(ix *Index, f int, prefix []byte, commSet, extSet, largeSet, path, sign int) {
	fam := &ix.fam[f]
	sf := &st.fam[f]
	peer := st.pathPeer[path]

	fam.usage.RoutesTotal += sign
	mapAdd(fam.perASRoutes, peer, sign)
	prefixAdd(sf.prefixRefs, prefix, sign)

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
// per-(id, peer) refcounts; the ranking maps a rebuild maintains per
// instance (actionComms, targets, the non-member aggregates) are pure
// functions of those refcounts and the day's member list, so they are
// materialized once per day (materializeFam) instead of being patched
// per instance — the day's cost moves from O(instances) map updates
// to O(distinct action ids) map inserts.
func (st *seriesState) applyAttrs(ix *Index, f int, commSet, extSet, largeSet, path, sign int) {
	fam := &ix.fam[f]
	sf := &st.fam[f]
	peer := st.pathPeer[path]

	setIDs := st.setIDs[st.setOff[commSet]:st.setOff[commSet+1]]
	es := &st.extSets[extSet]
	ls := &st.largeSets[largeSet]

	cc := len(setIDs) + int(es.n) + int(ls.n)
	mapAdd(fam.commHist, cc, sign)
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
		cl := &st.idClass[id]
		if !cl.Known {
			fam.mix.UnknownStandard += sign
			continue
		}
		fam.mix.DefinedStandard += sign
		if st.idFlags[id]&idFlagAction == 0 {
			fam.flavour.StandardInfo += sign
			continue
		}
		fam.flavour.StandardAction += sign
		actions++
		sf.idRefs[id] += int32(sign)
		fam.occ[cl.Action] += sign
		if pt == nil {
			pt = sf.peerTypes[peer]
			if pt == nil {
				pt = new([numActionTypes]int32)
				sf.peerTypes[peer] = pt
			}
		}
		prev := pt[cl.Action]
		pt[cl.Action] = prev + int32(sign)
		if prev == 0 && sign > 0 {
			fam.typeASes[cl.Action]++
		} else if prev == 1 && sign < 0 {
			fam.typeASes[cl.Action]--
		}
		if cl.Target == dictionary.TargetPeer {
			pm := sf.idPeerRefs[id]
			if pm == nil {
				pm = make(map[uint32]int32, 2)
				sf.idPeerRefs[id] = pm
			}
			if v := pm[peer] + int32(sign); v == 0 {
				delete(pm, peer)
			} else {
				pm[peer] = v
			}
		}
	}
	if actions > 0 {
		fam.usage.RoutesTagged += sign
		fam.usage.ActionInstances += actions * sign
		mapAdd(fam.perASActions, peer, actions*sign)
	}
}

// materializeFam derives one family's ranking maps from the chain
// refcounts at a day boundary. An action community's instance count
// is its id's refcount, a target ASN's count is the sum over its ids,
// and the §5.5 non-member aggregates are the target sums restricted
// to ASNs outside the day's member list — so membership churn needs
// no per-route work at all, the day's materialization simply reads
// the new member list. Zero-refcount entries are skipped, preserving
// NewIndex's never-stores-zero map shape.
func (st *seriesState) materializeFam(ix *Index, f int) {
	sf := &st.fam[f]
	fam := &ix.fam[f]

	actionComms := make(map[bgp.Community]int, len(st.actionIDs))
	for _, id := range st.actionIDs {
		if n := sf.idRefs[id]; n != 0 {
			actionComms[st.idComm[id]] = int(n)
		}
	}
	fam.actionComms = actionComms

	targets := make(map[uint32]int, len(st.targetIDs))
	nonMemberComms := make(map[bgp.Community]int, 32)
	culprits := make(map[uint32]int, 32)
	nonMemberInstances := 0
	for asn, ids := range st.targetIDs {
		total := 0
		for _, id := range ids {
			total += int(sf.idRefs[id])
		}
		if total != 0 {
			targets[asn] = total
		}
		if st.members[asn] {
			continue
		}
		for _, id := range ids {
			if n := int(sf.idRefs[id]); n != 0 {
				nonMemberComms[st.idComm[id]] = n
				nonMemberInstances += n
			}
			for peer, cnt := range sf.idPeerRefs[id] {
				culprits[peer] += int(cnt)
			}
		}
	}
	fam.targets = targets
	fam.nonMemberComms = nonMemberComms
	fam.culprits = culprits
	fam.nonMemberInstances = nonMemberInstances
}

// finalize derives the aggregates that fall out of the maintained
// state at day boundaries — the materialized ranking maps, the
// ASes-using count — and marks the lazy prefix count as already
// computed.
func (st *seriesState) finalize(ix *Index) {
	for f := range ix.fam {
		st.materializeFam(ix, f)
		ix.fam[f].usage.ASesUsing = len(ix.fam[f].perASActions)
		ix.prefixCount[f] = len(st.fam[f].prefixRefs)
		ix.prefixOnce[f].Do(func() {})
	}
}

// cloneFam copies one family's incrementally patched aggregates for
// the next day's index — the only per-day copy a chain makes: three
// maps sized by distinct community counts and announcing peers, not by
// routes or distinct communities. The materialized ranking maps are
// rebuilt per day (materializeFam), so they start nil instead of
// cloned. The maps clone at the runtime's bucket level (maps.Clone),
// so this costs memory bandwidth, not re-insertion.
func cloneFam(src *familyStats) familyStats {
	dst := *src
	dst.commHist = maps.Clone(src.commHist)
	dst.perASActions = maps.Clone(src.perASActions)
	dst.perASRoutes = maps.Clone(src.perASRoutes)
	dst.actionComms = nil
	dst.targets = nil
	dst.nonMemberComms = nil
	dst.culprits = nil
	return dst
}

// IndexSeriesFromReader builds the classified index for a delta
// chain's base snapshot straight off its columnar route block, primed
// for Index.Advance: alongside the index it constructs the chain
// state (dense ids, per-set reductions, reference counts) that the
// deltas will patch. The snapshot must be CodecBinary in
// random-access mode — the chain digest is the file's own sha256.
//
// The day-0 index answers every accessor identically to NewIndex over
// the materialized snapshot; like IndexFromReader its embedded
// snapshot is header-only (attach with AttachIndex).
func IndexSeriesFromReader(sr *collector.SnapshotReader, scheme *dictionary.Scheme) (*Index, error) {
	digest, ok := sr.Digest()
	if !ok {
		return nil, errors.New("analysis: series index requires a random-access CodecBinary snapshot")
	}
	t := tel()
	if t != nil {
		sp := t.span("analysis.index_build")
		sp.SetAttr("ixp", sr.Header().IXP)
		sp.SetAttr("date", sr.Header().Date)
		sp.SetAttr("source", "columns")
		t0 := time.Now()
		defer func() {
			t.built(time.Since(t0))
			sp.End()
		}()
	}
	t.builtFrom("columns")

	var arena collector.Arena
	rb, err := sr.RouteBlock(&arena)
	if err != nil {
		return nil, err
	}

	head := *sr.Header() // private copy; Routes stays nil
	st := &seriesState{
		scheme:       scheme,
		digest:       digest,
		commID:       make(map[bgp.Community]int32, 1024),
		extClasses:   make(map[bgp.ExtendedCommunity]dictionary.Class, 32),
		largeClasses: make(map[bgp.LargeCommunity]dictionary.Class, 32),
		targetIDs:    make(map[uint32][]int32, 64),
		members:      head.MemberSet(),
		setOff:       []int32{0},
	}
	hint := len(head.Members)
	for f := range st.fam {
		sf := &st.fam[f]
		sf.idPeerRefs = make(map[int32]map[uint32]int32, 64)
		sf.peerTypes = make(map[uint32]*[numActionTypes]int32, hint)
		sf.prefixRefs = make(map[string]int32, rb.NumRoutes()/2+1)
	}

	// The binary file's table order is canonical first-appearance
	// order — the same order a DeltaEncoder starting from this
	// snapshot interns, so chain ids agree by construction.
	for _, set := range rb.CommunitySets() {
		st.registerCommSet(set)
	}
	for _, set := range rb.ExtCommunitySets() {
		st.registerExtSet(set)
	}
	for _, set := range rb.LargeCommunitySets() {
		st.registerLargeSet(set)
	}
	for _, p := range rb.ASPaths() {
		st.pathPeer = append(st.pathPeer, p.Neighbor())
	}
	st.sizes = [5]int{
		len(rb.NextHops()), len(st.pathPeer),
		len(rb.CommunitySets()), len(st.extSets), len(st.largeSets),
	}

	ix := &Index{snap: &head, scheme: scheme, members: st.members, series: st}
	for f := range ix.fam {
		fam := &ix.fam[f]
		fam.commHist = make(map[int]int, 64)
		fam.perASActions = make(map[uint32]int, hint)
		fam.perASRoutes = make(map[uint32]int, hint)
	}
	for _, m := range head.Members {
		if m.IPv4 {
			ix.fam[0].usage.MembersAtRS++
		}
		if m.IPv6 {
			ix.fam[1].usage.MembersAtRS++
		}
	}

	// Replay every base route as an addition through the same fold the
	// deltas use — equivalence to a rebuild holds by construction.
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
	st.finalize(ix)
	st.owner = ix
	return ix, nil
}

// Advance derives day N's index from this one (day N-1) by applying a
// delta's table extensions and op stream to cloned aggregates. Only
// the chain's newest index may advance, and the delta must extend
// exactly this index's snapshot (digest- and table-size-verified);
// earlier days' indexes stay valid and immutable. If Advance returns
// a non-mismatch error partway through, the chain state is undefined
// and the series must be rebuilt from its base.
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
	t := tel()
	if t != nil {
		sp := t.span("analysis.index_build")
		sp.SetAttr("ixp", d.Header().IXP)
		sp.SetAttr("date", d.Header().Date)
		sp.SetAttr("source", "delta")
		t0 := time.Now()
		defer func() {
			t.built(time.Since(t0))
			sp.End()
		}()
	}
	t.builtFrom("delta")

	head := *d.Header() // private copy; Routes stays nil
	next := &Index{snap: &head, scheme: st.scheme, members: head.MemberSet(), series: st}
	for f := range next.fam {
		next.fam[f] = cloneFam(&ix.fam[f])
		next.fam[f].usage.MembersAtRS = 0
	}
	for _, m := range head.Members {
		if m.IPv4 {
			next.fam[0].usage.MembersAtRS++
		}
		if m.IPv6 {
			next.fam[1].usage.MembersAtRS++
		}
	}

	// Membership churn needs no aggregate surgery: the member-sensitive
	// aggregates are materialized per day against this list (finalize).
	st.members = next.members

	for _, set := range d.NewCommunitySets() {
		st.registerCommSet(set)
	}
	for _, set := range d.NewExtCommunitySets() {
		st.registerExtSet(set)
	}
	for _, set := range d.NewLargeCommunitySets() {
		st.registerLargeSet(set)
	}
	for _, p := range d.NewASPaths() {
		st.pathPeer = append(st.pathPeer, p.Neighbor())
	}
	st.sizes[0] += len(d.NewNextHops())
	st.sizes[1] += len(d.NewASPaths())
	st.sizes[2] += len(d.NewCommunitySets())
	st.sizes[3] += len(d.NewExtCommunitySets())
	st.sizes[4] += len(d.NewLargeCommunitySets())

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
	st.finalize(next)
	st.owner = next
	return next, nil
}

// AdvanceSnapshot advances a loaded chain snapshot (header-only, with
// its series index attached — the LoadSnapshotDir incremental path)
// by one delta, returning day N as another header-only snapshot with
// the advanced index attached.
func AdvanceSnapshot(base *collector.Snapshot, scheme *dictionary.Scheme, d *collector.DeltaReader) (*collector.Snapshot, error) {
	ix := pinnedFor(base, scheme)
	if ix == nil {
		return nil, errors.New("analysis: snapshot has no attached series index to advance")
	}
	next, err := ix.Advance(d)
	if err != nil {
		return nil, err
	}
	s := next.Snapshot()
	AttachIndex(s, next)
	return s, nil
}
