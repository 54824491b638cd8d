package analysis

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// The classified snapshot index.
//
// Every §5 analysis slices the same underlying classification: each
// community on each accepted route, mapped through the IXP dictionary.
// The direct entry points (the *Direct twins in this package) re-walk
// the snapshot and re-call Scheme.Classify per instance, so running
// the full experiment battery does O(experiments × routes ×
// communities) redundant classification work. An Index performs that
// classification exactly once — one pass over the routes, sharded
// across a worker pool, memoizing the Class of every *distinct*
// standard/extended/large community value — and aggregates, per
// address family, everything the analyses consume: the Fig. 1/2 mix,
// the Fig. 3 action/info split, Fig. 4's usage and per-AS counts, the
// Table 2 / §5.3 per-type tallies, the Fig. 5–7 / §5.5 rankings and
// the §5.6 per-route community-count distribution.

// numActionTypes sizes the per-ActionType arrays (Informational
// through Blackhole).
const numActionTypes = int(dictionary.Blackhole) + 1

// Index is the per-(snapshot, scheme) classified view.
//
// Concurrency contract: an Index is logically immutable after
// construction (the only internal mutation is a sync.Once-guarded
// lazy prefix count). Every method is read-only and safe to call from
// any number of goroutines without external locking; accessors that
// expose aggregate maps return fresh copies. The one obligation on
// the caller is that the underlying Snapshot must not be mutated
// while the Index (or any analysis wrapper that may consult the
// shared index cache) is in use — mutate a copy, or call
// InvalidateIndex first. TestIndexConcurrentUse pins the contract
// under -race.
type Index struct {
	snap    *collector.Snapshot
	scheme  *dictionary.Scheme
	members map[uint32]bool

	// Memoized classification of every distinct extended and large
	// community value seen in the snapshot. Standard communities carry
	// no memo: Class answers from the scheme directly.
	extClasses   map[bgp.ExtendedCommunity]dictionary.Class
	largeClasses map[bgp.LargeCommunity]dictionary.Class

	// fam[0] aggregates IPv4, fam[1] IPv6.
	fam [2]familyStats

	// Distinct-prefix counts are only needed by Counts (Appendix A),
	// so they are computed lazily rather than paying a per-route set
	// insert during the classification pass.
	prefixOnce  [2]sync.Once
	prefixCount [2]int

	// Column-direct builds (IndexFromReader) carry no Routes to count
	// prefixes from; they retain each family's adjacent-deduplicated
	// encoded prefixes instead, released once the lazy count runs.
	colPrefixes bool
	prefixEnc   [2][]byte
	prefixEnds  [2][]int32

	// series is the incremental chain state of a series-built index
	// (IndexSeriesFromReader / Advance); nil for every other build.
	// Only the chain's newest index — the state's owner — may Advance.
	series *seriesState
}

// Snapshot returns the snapshot this index classifies. For a
// column-direct index it is header-only: Routes is nil, everything
// else matches the encoded snapshot.
func (ix *Index) Snapshot() *collector.Snapshot { return ix.snap }

// familyStats holds the per-address-family aggregates of one pass.
type familyStats struct {
	// commCounts is each route's total community count (all flavours),
	// in snapshot route order — the §5.6 hygiene distribution.
	// Incrementally maintained indexes (Index.Advance) carry the same
	// distribution as a histogram instead (commHist, count → routes),
	// because a positional slice cannot be patched under adds and
	// removals at arbitrary route positions; both §5.6 consumers are
	// order-independent, so either representation answers identically.
	commCounts    []int
	commHist      map[int]int
	commInstances int

	mix     Mix
	flavour FlavourActions
	usage   Usage

	perASActions map[uint32]int
	perASRoutes  map[uint32]int
	actionComms  map[bgp.Community]int

	typeASes [numActionTypes]int
	occ      [numActionTypes]int

	targets            map[uint32]int
	nonMemberInstances int
	nonMemberComms     map[bgp.Community]int
	culprits           map[uint32]int
}

// parallelism is the package-wide worker budget for index
// construction and the parallel analyses (Stability fan-out). It
// defaults to runtime.GOMAXPROCS(0); a value of 1 disables the index
// entirely and routes every wrapper through its *Direct twin — the
// pre-index sequential behaviour, selectable with `analyze
// -parallel 1`.
var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the analysis worker budget. n < 1 resets to
// runtime.GOMAXPROCS(0). With n == 1 the indexed fast path is
// disabled and every analysis runs its direct-classify twin.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the current analysis worker budget.
func Parallelism() int { return int(parallelism.Load()) }

// useIndex reports whether wrappers should go through the shared
// index (Parallelism() > 1) or the direct twins.
func useIndex() bool { return Parallelism() > 1 }

// --- shared index cache -------------------------------------------------

// The wrappers keep their historical (snapshot, scheme, family)
// signatures, so the cross-analysis reuse the index exists for has to
// happen behind them: a bounded cache keyed by the (snapshot, scheme)
// pointer pair. Entries single-flight their construction so that
// concurrent experiments requesting the same snapshot build one index
// between them.

const indexCacheCap = 32

type indexKey struct {
	snap   *collector.Snapshot
	scheme *dictionary.Scheme
}

type indexEntry struct {
	once sync.Once
	ix   *Index
	// done flips after the build completes, separating cache hits from
	// lookups that coalesce onto an in-flight build.
	done atomic.Bool
}

// build runs the entry's single-flight construction.
func (e *indexEntry) build(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	e.once.Do(func() {
		e.ix = NewIndexWorkers(s, scheme, Parallelism())
		e.done.Store(true)
	})
	return e.ix
}

var (
	indexMu      sync.Mutex
	indexEntries = make(map[indexKey]*indexEntry)
	indexOrder   []indexKey
)

// IndexFor returns the shared Index for (s, scheme), building it on
// first use with the current Parallelism. The cache holds strong
// references to at most indexCacheCap snapshots (FIFO eviction); the
// snapshot must not be mutated while indexed analyses run against it
// (see the Index concurrency contract).
func IndexFor(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	if ix := pinnedFor(s, scheme); ix != nil {
		return ix
	}
	t := tel()
	key := indexKey{snap: s, scheme: scheme}
	indexMu.Lock()
	e := indexEntries[key]
	if e == nil {
		evicted := 0
		if len(indexEntries) >= indexCacheCap {
			oldest := indexOrder[0]
			indexOrder = indexOrder[1:]
			delete(indexEntries, oldest)
			evicted = 1
		}
		e = &indexEntry{}
		indexEntries[key] = e
		indexOrder = append(indexOrder, key)
		t.miss()
		t.cache(len(indexEntries), evicted)
	} else if e.done.Load() {
		t.hit()
	} else {
		t.coalesce()
	}
	indexMu.Unlock()
	return e.build(s, scheme)
}

// InvalidateIndex drops any cached index for s, for callers that must
// mutate a snapshot that has already been analysed.
func InvalidateIndex(s *collector.Snapshot) {
	indexMu.Lock()
	defer indexMu.Unlock()
	kept := indexOrder[:0]
	dropped := 0
	for _, key := range indexOrder {
		if key.snap == s {
			delete(indexEntries, key)
			dropped++
			continue
		}
		kept = append(kept, key)
	}
	indexOrder = kept
	tel().cache(len(indexEntries), dropped)
}

// indexFor is the wrapper dispatch: the shared index when the indexed
// path is enabled, nil to signal "use the direct twin". A pinned
// index (AttachIndex) wins even over the Parallelism()==1 direct
// dispatch: pinned snapshots may be header-only, leaving the direct
// twins nothing to walk.
func indexFor(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	if ix := pinnedFor(s, scheme); ix != nil {
		return ix
	}
	if !useIndex() {
		return nil
	}
	return IndexFor(s, scheme)
}

// indexForSnapshot finds an already-built index for s under any
// scheme — for the scheme-independent analyses (hygiene, Appendix A
// counts), whose aggregates are identical across schemes. Returns nil
// when nothing is cached; those analyses are cheap enough that
// building an index just for them would be a net loss.
func indexForSnapshot(s *collector.Snapshot) *Index {
	if ix := pinnedFor(s, nil); ix != nil {
		return ix
	}
	if !useIndex() {
		return nil
	}
	indexMu.Lock()
	var e *indexEntry
	var scheme *dictionary.Scheme
	for _, key := range indexOrder {
		if key.snap == s {
			e, scheme = indexEntries[key], key.scheme
			break
		}
	}
	indexMu.Unlock()
	if e == nil {
		return nil
	}
	if t := tel(); t != nil {
		if e.done.Load() {
			t.hit()
		} else {
			t.coalesce()
		}
	}
	return e.build(s, scheme)
}

// --- construction -------------------------------------------------------

// NewIndex builds the classified index for one snapshot under one
// scheme using the package Parallelism.
func NewIndex(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	return NewIndexWorkers(s, scheme, Parallelism())
}

// NewIndexWorkers builds the index with an explicit worker count. The
// routes are sharded into contiguous chunks, each classified with a
// worker-local memo, and the shard aggregates are merged in route
// order — the result is identical for any worker count.
func NewIndexWorkers(s *collector.Snapshot, scheme *dictionary.Scheme, workers int) *Index {
	t := tel()
	if t != nil {
		sp := t.span("analysis.index_build")
		sp.SetAttr("ixp", s.IXP)
		sp.SetAttr("date", s.Date)
		sp.SetAttr("source", "routes")
		t0 := time.Now()
		defer func() {
			t.built(time.Since(t0))
			sp.End()
		}()
	}
	t.builtFrom("routes")
	ix := &Index{
		snap:    s,
		scheme:  scheme,
		members: s.MemberSet(),
	}
	for _, m := range s.Members {
		if m.IPv4 {
			ix.fam[0].usage.MembersAtRS++
		}
		if m.IPv6 {
			ix.fam[1].usage.MembersAtRS++
		}
	}

	routes := s.Routes
	if workers < 1 {
		workers = 1
	}
	if workers > len(routes) {
		workers = max(1, len(routes))
	}
	shards := make([]*indexShard, workers)
	if workers == 1 {
		sh := newIndexShard(s, len(routes))
		for i := range routes {
			sh.addRoute(&routes[i], scheme, ix.members)
		}
		shards[0] = sh
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(routes) / workers
			hi := (w + 1) * len(routes) / workers
			sh := newIndexShard(s, hi-lo)
			shards[w] = sh
			wg.Add(1)
			go func(chunk []bgp.Route) {
				defer wg.Done()
				for i := range chunk {
					sh.addRoute(&chunk[i], scheme, ix.members)
				}
			}(routes[lo:hi])
		}
		wg.Wait()
	}
	ix.merge(shards)
	return ix
}

// classMemo memoizes the Class of distinct standard community
// values for one indexShard while it folds routes; it does not outlive
// the build. The calibrated workloads carry tens of thousands of
// distinct standard values per snapshot (action communities target
// many ASNs), and a builtin map of that size costs an allocation per
// table group; since bgp.Community is a bare uint32 this fixed
// open-addressing table does the same job in two allocations.
type classMemo struct {
	// slots holds community+1, so 0 marks an empty slot; the one
	// community whose increment wraps to 0 (0xFFFFFFFF) is carried in
	// maxVal instead.
	slots  []uint32
	vals   []dictionary.Class
	mask   uint32
	n      int
	hasMax bool
	maxVal dictionary.Class
}

// newClassMemo sizes the table for roughly `capacity` distinct
// values: the initial size keeps the load factor below ⅔ even when
// every value is distinct, and the table doubles if a pathological
// shard exceeds that.
func newClassMemo(capacity int) *classMemo {
	size := 64
	for size < capacity {
		size <<= 1
	}
	return &classMemo{
		slots: make([]uint32, size),
		vals:  make([]dictionary.Class, size),
		mask:  uint32(size - 1),
	}
}

// hash spreads sequential community values (Fibonacci hashing).
func (m *classMemo) hash(c bgp.Community) uint32 { return (uint32(c) * 0x9e3779b1) & m.mask }

func (m *classMemo) get(c bgp.Community) (dictionary.Class, bool) {
	if uint32(c) == ^uint32(0) {
		return m.maxVal, m.hasMax
	}
	k := uint32(c) + 1
	for i := m.hash(c); ; i = (i + 1) & m.mask {
		switch m.slots[i] {
		case k:
			return m.vals[i], true
		case 0:
			return dictionary.Class{}, false
		}
	}
}

func (m *classMemo) put(c bgp.Community, cl dictionary.Class) {
	if uint32(c) == ^uint32(0) {
		m.hasMax, m.maxVal = true, cl
		return
	}
	if 3*m.n >= 2*len(m.slots) {
		m.grow()
	}
	k := uint32(c) + 1
	for i := m.hash(c); ; i = (i + 1) & m.mask {
		switch m.slots[i] {
		case k:
			m.vals[i] = cl
			return
		case 0:
			m.slots[i], m.vals[i] = k, cl
			m.n++
			return
		}
	}
}

func (m *classMemo) grow() {
	oldSlots, oldVals := m.slots, m.vals
	m.slots = make([]uint32, 2*len(oldSlots))
	m.vals = make([]dictionary.Class, len(m.slots))
	m.mask = uint32(len(m.slots) - 1)
	m.n = 0
	for i, k := range oldSlots {
		if k != 0 {
			m.put(bgp.Community(k-1), oldVals[i])
		}
	}
}

// indexShard is one worker's slice of the classification pass.
type indexShard struct {
	classes      *classMemo
	extClasses   map[bgp.ExtendedCommunity]dictionary.Class
	largeClasses map[bgp.LargeCommunity]dictionary.Class
	fam          [2]shardFam
}

type shardFam struct {
	routes        int
	commCounts    []int
	commInstances int

	mix     Mix
	flavour FlavourActions

	routesTagged    int
	actionInstances int
	perASActions    map[uint32]int
	perASRoutes     map[uint32]int
	actionComms     map[bgp.Community]int
	// typeMask records, per announcing AS, a bitmask of the action
	// types it used — one map instead of one user-set per type.
	typeMask map[uint32]uint8
	occ      [numActionTypes]int

	targets            map[uint32]int
	nonMemberInstances int
	nonMemberComms     map[bgp.Community]int
	culprits           map[uint32]int
}

func newIndexShard(s *collector.Snapshot, chunk int) *indexShard {
	// The standard-community memo is sized to the chunk — in the
	// calibrated workloads distinct standard values approach the route
	// count. The aggregate histograms stay small (the dictionaries
	// define few action communities and few targeted ASNs recur), so
	// they get fixed small hints instead.
	sh := &indexShard{
		classes:      newClassMemo(chunk),
		extClasses:   make(map[bgp.ExtendedCommunity]dictionary.Class, 32),
		largeClasses: make(map[bgp.LargeCommunity]dictionary.Class, 32),
	}
	hint := len(s.Members)
	for f := range sh.fam {
		st := &sh.fam[f]
		st.commCounts = make([]int, 0, chunk)
		st.perASActions = make(map[uint32]int, hint)
		st.perASRoutes = make(map[uint32]int, hint)
		st.actionComms = make(map[bgp.Community]int, 64)
		st.typeMask = make(map[uint32]uint8, hint)
		st.targets = make(map[uint32]int, 64)
		st.nonMemberComms = make(map[bgp.Community]int, 32)
		st.culprits = make(map[uint32]int, hint)
	}
	return sh
}

// addRoute folds one route into the shard, classifying each community
// through the shard-local memo so every distinct value is classified
// at most once per worker.
func (sh *indexShard) addRoute(r *bgp.Route, scheme *dictionary.Scheme, members map[uint32]bool) {
	f := 0
	if r.IsIPv6() {
		f = 1
	}
	st := &sh.fam[f]
	peer := r.PeerAS()

	st.routes++
	cc := r.CommunityCount()
	st.commCounts = append(st.commCounts, cc)
	st.commInstances += cc
	st.perASRoutes[peer]++

	actions := 0
	for _, c := range r.Communities {
		cl, ok := sh.classes.get(c)
		if !ok {
			cl = scheme.Classify(c)
			sh.classes.put(c, cl)
		}
		if !cl.Known {
			st.mix.UnknownStandard++
			continue
		}
		st.mix.DefinedStandard++
		if !cl.Action.IsAction() {
			st.flavour.StandardInfo++
			continue
		}
		st.flavour.StandardAction++
		actions++
		st.actionComms[c]++
		st.occ[cl.Action]++
		st.typeMask[peer] |= 1 << cl.Action
		if cl.Target == dictionary.TargetPeer {
			st.targets[cl.TargetASN]++
			if !members[cl.TargetASN] {
				st.nonMemberInstances++
				st.nonMemberComms[c]++
				st.culprits[peer]++
			}
		}
	}
	for _, e := range r.ExtCommunities {
		cl, ok := sh.extClasses[e]
		if !ok {
			cl = scheme.ClassifyExtended(e)
			sh.extClasses[e] = cl
		}
		if !cl.Known {
			st.mix.UnknownExtended++
			continue
		}
		st.mix.DefinedExtended++
		if cl.Action.IsAction() {
			st.flavour.ExtendedAction++
		} else {
			st.flavour.ExtendedInfo++
		}
	}
	for _, l := range r.LargeCommunities {
		cl, ok := sh.largeClasses[l]
		if !ok {
			cl = scheme.ClassifyLarge(l)
			sh.largeClasses[l] = cl
		}
		if !cl.Known {
			st.mix.UnknownLarge++
			continue
		}
		st.mix.DefinedLarge++
		if cl.Action.IsAction() {
			st.flavour.LargeAction++
			if cl.Target == dictionary.TargetPeer && cl.TargetASN > 0xFFFF {
				st.flavour.LargeWideTargets++
			}
		} else {
			st.flavour.LargeInfo++
		}
	}
	if actions > 0 {
		st.routesTagged++
		st.actionInstances += actions
		st.perASActions[peer] += actions
	}
}

// merge folds the shards, in route order, into the final per-family
// aggregates.
func (ix *Index) merge(shards []*indexShard) {
	ix.extClasses = shards[0].extClasses
	ix.largeClasses = shards[0].largeClasses
	for _, sh := range shards[1:] {
		for e, cl := range sh.extClasses {
			ix.extClasses[e] = cl
		}
		for l, cl := range sh.largeClasses {
			ix.largeClasses[l] = cl
		}
	}

	// Shard 0's aggregates are adopted as the destination — with one
	// worker (or one populated shard) the merge allocates nothing.
	for f := range ix.fam {
		dst := &ix.fam[f]
		base := &shards[0].fam[f]
		typeMask := base.typeMask
		dst.commCounts = base.commCounts
		dst.commInstances = base.commInstances
		dst.mix = base.mix
		dst.flavour = base.flavour
		dst.usage.RoutesTotal = base.routes
		dst.usage.RoutesTagged = base.routesTagged
		dst.usage.ActionInstances = base.actionInstances
		dst.occ = base.occ
		dst.perASActions = base.perASActions
		dst.perASRoutes = base.perASRoutes
		dst.actionComms = base.actionComms
		dst.targets = base.targets
		dst.nonMemberInstances = base.nonMemberInstances
		dst.nonMemberComms = base.nonMemberComms
		dst.culprits = base.culprits

		for _, sh := range shards[1:] {
			st := &sh.fam[f]
			dst.usage.RoutesTotal += st.routes
			dst.commCounts = append(dst.commCounts, st.commCounts...)
			dst.commInstances += st.commInstances
			addMix(&dst.mix, st.mix)
			addFlavour(&dst.flavour, st.flavour)
			dst.usage.RoutesTagged += st.routesTagged
			dst.usage.ActionInstances += st.actionInstances
			dst.nonMemberInstances += st.nonMemberInstances
			for asn, n := range st.perASActions {
				dst.perASActions[asn] += n
			}
			for asn, n := range st.perASRoutes {
				dst.perASRoutes[asn] += n
			}
			for c, n := range st.actionComms {
				dst.actionComms[c] += n
			}
			for asn, mask := range st.typeMask {
				typeMask[asn] |= mask
			}
			for t := range st.occ {
				dst.occ[t] += st.occ[t]
			}
			for asn, n := range st.targets {
				dst.targets[asn] += n
			}
			for c, n := range st.nonMemberComms {
				dst.nonMemberComms[c] += n
			}
			for asn, n := range st.culprits {
				dst.culprits[asn] += n
			}
		}
		// A peer appears in perASActions iff it tagged ≥1 route.
		dst.usage.ASesUsing = len(dst.perASActions)
		for _, mask := range typeMask {
			for t := range dst.typeASes {
				if mask&(1<<t) != 0 {
					dst.typeASes[t]++
				}
			}
		}
	}
}

func addMix(dst *Mix, src Mix) {
	dst.DefinedStandard += src.DefinedStandard
	dst.UnknownStandard += src.UnknownStandard
	dst.DefinedExtended += src.DefinedExtended
	dst.UnknownExtended += src.UnknownExtended
	dst.DefinedLarge += src.DefinedLarge
	dst.UnknownLarge += src.UnknownLarge
}

func addFlavour(dst *FlavourActions, src FlavourActions) {
	dst.StandardAction += src.StandardAction
	dst.StandardInfo += src.StandardInfo
	dst.ExtendedAction += src.ExtendedAction
	dst.ExtendedInfo += src.ExtendedInfo
	dst.LargeAction += src.LargeAction
	dst.LargeInfo += src.LargeInfo
	dst.LargeWideTargets += src.LargeWideTargets
}

// --- accessors ----------------------------------------------------------

func (ix *Index) family(v6 bool) *familyStats {
	if v6 {
		return &ix.fam[1]
	}
	return &ix.fam[0]
}

// Class returns the classification of a standard community under the
// index's scheme, whether or not the value occurs in the snapshot.
// Scheme.Classify is a branch-only switch, so nothing is memoized.
func (ix *Index) Class(c bgp.Community) dictionary.Class {
	return ix.scheme.Classify(c)
}

// Usage returns the Fig. 4a aggregate for one family.
func (ix *Index) Usage(v6 bool) Usage { return ix.family(v6).usage }

// Mix returns the Fig. 1/2 instance mix for one family.
func (ix *Index) Mix(v6 bool) Mix { return ix.family(v6).mix }

// ActionInfoSplit returns the Fig. 3 split for one family.
func (ix *Index) ActionInfoSplit(v6 bool) (action, info int) {
	f := ix.family(v6).flavour
	return f.StandardAction, f.StandardInfo
}

// FlavourActions returns the per-flavour action/info tallies.
func (ix *Index) FlavourActions(v6 bool) FlavourActions { return ix.family(v6).flavour }

// PerASActionCounts returns a copy of each announcing AS's action
// instance count (Fig. 4b/7 raw series).
func (ix *Index) PerASActionCounts(v6 bool) map[uint32]int {
	st := ix.family(v6)
	out := make(map[uint32]int, len(st.perASActions))
	for asn, n := range st.perASActions {
		out[asn] = n
	}
	return out
}

// RouteCommCorrelation returns the Fig. 4c scatter for one family.
func (ix *Index) RouteCommCorrelation(v6 bool) []CorrelationPoint {
	st := ix.family(v6)
	totalComms := 0
	for _, v := range st.perASActions {
		totalComms += v
	}
	out := make([]CorrelationPoint, 0, len(st.perASRoutes))
	for asn, rc := range st.perASRoutes {
		out = append(out, CorrelationPoint{
			ASN:       asn,
			RouteFrac: ratio(rc, st.usage.RoutesTotal),
			CommFrac:  ratio(st.perASActions[asn], totalComms),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// ASesPerActionType returns Table 2 for one family.
func (ix *Index) ASesPerActionType(v6 bool) []TypeUsage {
	st := ix.family(v6)
	out := make([]TypeUsage, 0, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		out = append(out, TypeUsage{
			Type:  t,
			ASes:  st.typeASes[t],
			Share: ratio(st.typeASes[t], st.usage.MembersAtRS),
		})
	}
	return out
}

// OccurrencesPerType returns the §5.3 per-type instance counts. Types
// with zero occurrences are absent, like in the direct twin.
func (ix *Index) OccurrencesPerType(v6 bool) map[dictionary.ActionType]int {
	st := ix.family(v6)
	out := make(map[dictionary.ActionType]int, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		if st.occ[t] > 0 {
			out[t] = st.occ[t]
		}
	}
	return out
}

// TopActionCommunities returns the Fig. 5 ranking for one family.
func (ix *Index) TopActionCommunities(v6 bool, k int) []CommunityCount {
	return rankCommunities(ix.family(v6).actionComms, ix.Class, k)
}

// NonMemberTargeting returns the §5.5 aggregate for one family.
func (ix *Index) NonMemberTargeting(v6 bool, k int) NonMemberTargeting {
	st := ix.family(v6)
	return NonMemberTargeting{
		Instances: st.nonMemberInstances,
		Total:     st.flavour.StandardAction,
		Top:       rankCommunities(st.nonMemberComms, ix.Class, k),
	}
}

// CulpritRanking returns the Fig. 7 ranking for one family.
func (ix *Index) CulpritRanking(v6 bool, k int) []Culprit {
	return rankCulprits(ix.family(v6).culprits, k)
}

// TopTargets ranks the ASes most targeted by action communities.
func (ix *Index) TopTargets(v6 bool, k int) []TargetedAS {
	st := ix.family(v6)
	out := make([]TargetedAS, 0, len(st.targets))
	for asn, n := range st.targets {
		out = append(out, TargetedAS{ASN: asn, IsMember: ix.members[asn], Count: n})
	}
	sortTargets(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// CategoryBreakdown returns the §5.4 target-category aggregation.
// Aggregating the per-target counts first and mapping each distinct
// ASN through the registry once gives the same totals as the
// per-instance walk of the direct twin.
func (ix *Index) CategoryBreakdown(reg *asdb.Registry, v6 bool) CategoryBreakdown {
	st := ix.family(v6)
	all := make(map[asdb.Category]int)
	nonMembers := make(map[asdb.Category]int)
	allTotal, nmTotal := 0, 0
	for asn, n := range st.targets {
		cat := reg.CategoryOf(asn)
		all[cat] += n
		allTotal += n
		if !ix.members[asn] {
			nonMembers[cat] += n
			nmTotal += n
		}
	}
	return CategoryBreakdown{
		All:        categoryShares(all, allTotal),
		NonMembers: categoryShares(nonMembers, nmTotal),
	}
}

// countsSlice materializes the family's per-route community counts:
// the positional slice when the index carries one, otherwise a fresh
// expansion of the histogram (arbitrary order — both consumers are
// order-independent). The result is freshly allocated either way and
// safe to sort in place.
func (st *familyStats) countsSlice() []int {
	if st.commCounts != nil || st.commHist == nil {
		return append([]int(nil), st.commCounts...)
	}
	counts := make([]int, 0, st.usage.RoutesTotal)
	for c, n := range st.commHist {
		for i := 0; i < n; i++ {
			counts = append(counts, c)
		}
	}
	return counts
}

// HygieneFilterImpact evaluates the §5.6 filter at each threshold.
func (ix *Index) HygieneFilterImpact(v6 bool, thresholds []int) []HygieneImpact {
	st := ix.family(v6)
	if st.commCounts != nil || st.commHist == nil {
		return hygieneImpacts(st.commCounts, st.commInstances, thresholds)
	}
	return hygieneImpacts(st.countsSlice(), st.commInstances, thresholds)
}

// CommunityCountPercentiles summarises the per-route community count
// distribution at the given percentiles.
func (ix *Index) CommunityCountPercentiles(v6 bool, percentiles []float64) []int {
	st := ix.family(v6)
	return countPercentiles(st.countsSlice(), percentiles)
}

// prefixes lazily counts the family's distinct prefixes — the only
// aggregate not worth computing during the classification pass.
func (ix *Index) prefixes(v6 bool) int {
	f := 0
	if v6 {
		f = 1
	}
	ix.prefixOnce[f].Do(func() {
		if ix.colPrefixes {
			// The retained encodings are canonical (appendPrefix is a
			// bijection on prefix values), so byte equality is prefix
			// equality and a string-keyed set counts exactly what the
			// netip.Prefix set below would.
			set := make(map[string]struct{}, len(ix.prefixEnds[f]))
			start := int32(0)
			for _, end := range ix.prefixEnds[f] {
				set[string(ix.prefixEnc[f][start:end])] = struct{}{}
				start = end
			}
			ix.prefixCount[f] = len(set)
			ix.prefixEnc[f], ix.prefixEnds[f] = nil, nil
			return
		}
		set := make(map[netip.Prefix]struct{}, ix.fam[f].usage.RoutesTotal/2+1)
		for i := range ix.snap.Routes {
			if r := &ix.snap.Routes[i]; r.IsIPv6() == v6 {
				set[r.Prefix] = struct{}{}
			}
		}
		ix.prefixCount[f] = len(set)
	})
	return ix.prefixCount[f]
}

// Counts returns the Appendix A row for one family.
func (ix *Index) Counts(v6 bool) SnapshotCounts {
	st := ix.family(v6)
	return SnapshotCounts{
		Date:        ix.snap.Date,
		Members:     st.usage.MembersAtRS,
		Prefixes:    ix.prefixes(v6),
		Routes:      st.usage.RoutesTotal,
		Communities: st.commInstances,
	}
}
