package analysis

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/netutil"
)

// evolvedChain materializes an evolved daily series plus its delta
// chain: the full snapshots (the ground truth each day), day 0 in
// binary form, and one encoded delta per later day.
func evolvedChain(tb testing.TB, ixp string, o ixpgen.TemporalOptions, churn float64) (days []*collector.Snapshot, day0 []byte, deltas [][]byte, scheme *dictionary.Scheme) {
	tb.Helper()
	p := ixpgen.ProfileByName(ixp)
	if p == nil {
		tb.Fatalf("no profile %q", ixp)
	}
	var enc *collector.DeltaEncoder
	err := ixpgen.EvolveSeries(*p, o, churn, func(day int, s *collector.Snapshot) error {
		days = append(days, s)
		if day == 0 {
			day0 = binBytes(tb, s)
			var err error
			enc, err = collector.NewDeltaEncoder(s)
			return err
		}
		buf, err := enc.Encode(s)
		if err != nil {
			return err
		}
		deltas = append(deltas, buf)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return days, day0, deltas, p.Scheme
}

// checkCountsMatchDirect asserts the accessors every day answers,
// counts-only or not, reproduce the oracle over s for both families.
func checkCountsMatchDirect(t testing.TB, tag string, ix *Index, s *collector.Snapshot) {
	t.Helper()
	if got, want := ix.DayCounts(), DayCountsDirect(s); got != want {
		t.Errorf("%s: DayCounts: indexed %+v != direct %+v", tag, got, want)
	}
	for _, v6 := range []bool{false, true} {
		if got, want := ix.Counts(v6), CountSnapshotDirect(s, v6); got != want {
			t.Errorf("%s: Counts (v6=%v): indexed %+v != direct %+v", tag, v6, got, want)
		}
	}
}

// TestAdvanceMatchesFullRebuild holds the DeltaReader source of the
// fold to the oracle across route churn, weekly member swaps (the
// non-member/culprit flips), and a collection valley with its next-day
// recovery: every day's Counts equal the oracle's as the day is
// advanced; every third day, and the tip, is materialized before a
// later Advance supersedes it and then answers every accessor as the
// oracle reads the materialized day — when built, and again once the
// whole chain has advanced past it. The other days stay counts-only,
// so the chain runs through both hand-overs of the per-AS maps: moved
// from a counts-only day, cloned from a materialized one.
func TestAdvanceMatchesFullRebuild(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 16, Seed: 42, Scale: 0.02, ValleyDays: []int{11}}
	days, day0, deltas, scheme := evolvedChain(t, "AMS-IX", o, 0.04)

	sr, err := collector.NewSnapshotReaderBytes(day0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*Index{ix}
	for d := 0; d < len(days); d++ {
		tag := fmt.Sprintf("day%d", d)
		checkCountsMatchDirect(t, tag, ix, days[d])
		if d%3 == 0 || d == len(days)-1 {
			if err := ix.Materialize(); err != nil {
				t.Fatalf("%s materialize: %v", tag, err)
			}
			checkIndexMatchesDirect(t, tag, ix, days[d], scheme)
		}
		if d == len(days)-1 {
			break
		}
		dr, err := collector.NewDeltaReader(deltas[d])
		if err != nil {
			t.Fatalf("day %d: %v", d+1, err)
		}
		if ix, err = ix.Advance(dr); err != nil {
			t.Fatalf("day %d advance: %v", d+1, err)
		}
		chain = append(chain, ix)
	}
	for d, ix := range chain {
		tag := fmt.Sprintf("day%d re-read", d)
		checkCountsMatchDirect(t, tag, ix, days[d])
		if d%3 == 0 || d == len(days)-1 {
			checkIndexMatchesDirect(t, tag, ix, days[d], scheme)
		}
	}
}

// TestAdvanceEdgeSnapshots drives the chain through degenerate days:
// routeless snapshots and routes with no community sets at all.
func TestAdvanceEdgeSnapshots(t *testing.T) {
	s0, scheme := testSnapshot(t)
	empty := &collector.Snapshot{
		IXP:     s0.IXP,
		Date:    "2021-10-05",
		Members: s0.Members,
	}
	empty.Normalize()
	back := *s0
	back.Date = "2021-10-06"
	back.Normalize()
	series := []*collector.Snapshot{s0, empty, &back}

	enc, err := collector.NewDeltaEncoder(s0)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := collector.NewSnapshotReaderBytes(binBytes(t, s0))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesDirect(t, "edge-day0", ix, series[0], scheme)
	for d := 1; d < len(series); d++ {
		buf, err := enc.Encode(series[d])
		if err != nil {
			t.Fatalf("day %d encode: %v", d, err)
		}
		dr, err := collector.NewDeltaReader(buf)
		if err != nil {
			t.Fatal(err)
		}
		ix, err = ix.Advance(dr)
		if err != nil {
			t.Fatalf("day %d advance: %v", d, err)
		}
		checkCountsMatchDirect(t, fmt.Sprintf("edge-day%d", d), ix, series[d])
		if err := ix.Materialize(); err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesDirect(t, fmt.Sprintf("edge-day%d", d), ix, series[d], scheme)
	}
}

func TestAdvanceErrors(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 3, Seed: 9, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "LINX", o, 0.05)

	// Chain state is kept only where something can advance it: a
	// materialized index and a standalone column index have none.
	dr0, err := collector.NewDeltaReader(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(days[0], scheme).Advance(dr0); err == nil {
		t.Error("Advance on a NewIndex index succeeded")
	}
	if _, err := columnIndex(t, days[0], scheme).Advance(dr0); err == nil {
		t.Error("Advance on an IndexFromReader index succeeded")
	}

	sr, err := collector.NewSnapshotReaderBytes(day0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}

	// Applying day 2's delta to day 0 is a base-digest mismatch.
	dr1, err := collector.NewDeltaReader(deltas[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Advance(dr1); !errors.Is(err, collector.ErrDeltaBaseMismatch) {
		t.Errorf("out-of-order delta: err = %v, want ErrDeltaBaseMismatch", err)
	}

	// A chained day is counts-only: a classified accessor panics naming
	// the cure.
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Materialize") {
				t.Errorf("classified accessor on a counts-only day: panic %q, want one naming Materialize", msg)
			}
		}()
		ix.TopActionCommunities(false, 3)
	}()

	// After advancing, the superseded day refuses further advances and
	// can no longer materialize — the chain state has moved on.
	next, err := ix.Advance(dr0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Advance(dr0); err == nil {
		t.Error("Advance on a superseded day succeeded")
	}
	if err := ix.Materialize(); err == nil {
		t.Error("Materialize on a superseded day succeeded")
	}
	checkCountsMatchDirect(t, "superseded day0", ix, days[0])

	// The owner materializes, once: a second call and a standalone
	// index's call are no-ops.
	for i := 0; i < 2; i++ {
		if err := next.Materialize(); err != nil {
			t.Fatalf("Materialize #%d on the chain's newest day: %v", i+1, err)
		}
	}
	checkIndexMatchesDirect(t, "day1", next, days[1], scheme)
	if err := NewIndex(days[0], scheme).Materialize(); err != nil {
		t.Errorf("Materialize on a NewIndex index: %v", err)
	}
}

// TestAdvanceSnapshotChain walks a chain the way the report loader
// does: each day is the index Advance returned from the previous day's,
// over a header-only snapshot, and answers the day's counts.
func TestAdvanceSnapshotChain(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 4, Seed: 5, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "LINX", o, 0.05)

	sr, err := collector.NewSnapshotReaderBytes(day0)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(days); d++ {
		dr, err := collector.NewDeltaReader(deltas[d-1])
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = cur.Advance(dr); err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		if head := cur.Snapshot(); head.Date != days[d].Date || head.Routes != nil {
			t.Fatalf("day %d: date %q (routes %d), want %q header-only", d, head.Date, len(head.Routes), days[d].Date)
		}
		if got, want := cur.DayCounts(), DayCountsDirect(days[d]); got != want {
			t.Fatalf("day %d: counts %+v, want %+v", d, got, want)
		}
	}

	// A materialized snapshot has no chain state to ride: what NewIndex
	// builds for it cannot advance.
	dr, err := collector.NewDeltaReader(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(days[0], scheme).Advance(dr); err == nil {
		t.Error("Advance from a materialized snapshot's index succeeded")
	}
}

// TestClassIsSchemeClassify pins Index.Class as a pure function of the
// scheme on every builder: values present in the snapshot, values
// absent from it and 0xFFFFFFFF all answer scheme.Classify — there is
// no per-index memo whose coverage could differ between builders.
func TestClassIsSchemeClassify(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 3, Seed: 11, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "DE-CIX", o, 0.05)

	sr, err := collector.NewSnapshotReaderBytes(day0)
	if err != nil {
		t.Fatal(err)
	}
	series, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	indexes := map[string]*Index{
		"NewIndex":              NewIndex(days[0], scheme),
		"IndexFromReader":       columnIndex(t, days[0], scheme),
		"IndexSeriesFromReader": series,
	}
	for d, buf := range deltas {
		dr, err := collector.NewDeltaReader(buf)
		if err != nil {
			t.Fatal(err)
		}
		if series, err = series.Advance(dr); err != nil {
			t.Fatal(err)
		}
		indexes[fmt.Sprintf("Advance day %d", d+1)] = series
	}

	present := map[bgp.Community]bool{}
	for _, s := range days {
		for i := range s.Routes {
			for _, c := range s.Routes[i].Communities {
				present[c] = true
			}
		}
	}
	values := []bgp.Community{bgp.Community(^uint32(0)), 0}
	for c := range present {
		values = append(values, c)
	}
	for absent, c := 0, bgp.Community(0x7fff0000); absent < 64; c++ {
		if !present[c] {
			values = append(values, c)
			absent++
		}
	}
	for name, ix := range indexes {
		for _, c := range values {
			if got, want := ix.Class(c), scheme.Classify(c); got != want {
				t.Fatalf("%s: Class(%v) = %+v, want scheme.Classify = %+v", name, c, got, want)
			}
		}
	}
}

// TestEarlierDayReadableDuringAdvance pins the immutability Advance
// promises and the report loader's per-IXP fold relies on: while day
// N+1 is being derived, day N (and every earlier day) answers from
// other goroutines with what it answered before — Counts on every day,
// point lookups on the days materialized before they were superseded
// (every other one, so the per-AS maps are both moved and cloned on
// the way). Run under -race.
func TestEarlierDayReadableDuringAdvance(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 6, Seed: 3, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "AMS-IX", o, 0.05)

	var comms []bgp.Community
	var peers []uint32
	for i := range days[0].Routes {
		r := &days[0].Routes[i]
		if i%7 == 0 && len(r.Communities) > 0 {
			comms = append(comms, r.Communities[0])
			peers = append(peers, r.PeerAS())
		}
	}
	type answers struct {
		counts   [2]SnapshotCounts
		usage    []CommunityUsage
		activity []ASActivity
	}
	read := func(ix *Index) answers {
		a := answers{counts: [2]SnapshotCounts{ix.Counts(false), ix.Counts(true)}}
		if ix.countsOnly {
			return a
		}
		for _, c := range comms {
			a.usage = append(a.usage, ix.CommunityUsage(c, false))
		}
		for _, p := range peers {
			a.activity = append(a.activity, ix.ASActivity(p, false))
		}
		return a
	}

	sr, err := collector.NewSnapshotReaderBytes(day0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	chain := []*Index{ix}
	want := []answers{read(ix)}
	for d, buf := range deltas {
		dr, err := collector.NewDeltaReader(buf)
		if err != nil {
			t.Fatal(err)
		}
		advanced := make(chan struct{})
		var wg sync.WaitGroup
		for i := range chain {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for again := true; again; {
					select {
					case <-advanced:
						again = false // one more pass after the successor exists
					default:
					}
					if got := read(chain[i]); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("day %d changed its answers while day %d advanced", i, d+1)
						return
					}
				}
			}(i)
		}
		next, err := chain[len(chain)-1].Advance(dr)
		close(advanced)
		wg.Wait()
		if err != nil {
			t.Fatalf("day %d advance: %v", d+1, err)
		}
		if d%2 == 1 {
			if err := next.Materialize(); err != nil {
				t.Fatal(err)
			}
		}
		chain = append(chain, next)
		want = append(want, read(next))
	}
}

// TestAdvanceBytesPerDay pins what one more chain day costs in heap
// bytes, next to the allocation-count pins on the column build and on
// Advance. At the seed every Advance copied the chain's whole
// standard-community memo (~780 kB a day on this series); a day that
// cloned its per-AS maps and materialized its ranking maps took 48 kB.
// A chain day is counts-only now: it allocates its index and whatever
// the chain's tables and refcount arrays grow by (31 kB measured).
func TestAdvanceBytesPerDay(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ix, readers := seriesChain(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, dr := range readers {
		var err error
		if ix, err = ix.Advance(dr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDay := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(readers))
	t.Logf("%.0f B allocated per Advance over %d days", perDay, len(readers))
	const ceiling = 40_000
	if perDay > ceiling {
		t.Errorf("Advance allocates %.0f B a day, ceiling %d (48 kB when every day materialized)", perDay, ceiling)
	}
}

// seriesChain is seriesWorkload's day 0 as a counts-only chain base,
// with a reader for every later day.
func seriesChain(t *testing.T) (*Index, []*collector.DeltaReader) {
	t.Helper()
	_, day0, deltas, scheme := seriesWorkload(t)
	sr, err := collector.NewSnapshotReaderBytes(day0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]*collector.DeltaReader, len(deltas))
	for i, buf := range deltas {
		if readers[i], err = collector.NewDeltaReader(buf); err != nil {
			t.Fatal(err)
		}
	}
	return ix, readers
}

// TestAdvanceAllocs pins how many allocations one more chain day costs
// on the same series: the counts-only day's index, its header (built
// here against the base's, so an unchanged member list is shared), its
// table extensions and the refcount arrays' occasional growth —
// nothing per op, per member, per community instance or per map entry.
// An Advance measured 2 here (3 while the header was decoded at open
// and copied, and its op escaped); 55 while every day cloned and
// materialized its maps, and 169 before that with the refcounts in
// runtime maps, inserting per new key.
func TestAdvanceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ix, readers := seriesChain(t)
	day := 0
	var err error
	// AllocsPerRun makes one warm-up call before its runs: every delta is
	// applied once.
	allocs := testing.AllocsPerRun(len(readers)-1, func() {
		if ix, err = ix.Advance(readers[day]); err != nil {
			t.Fatal(err)
		}
		day++
	})
	t.Logf("%.0f allocs per Advance over %d days", allocs, len(readers)-1)
	const ceiling = 6
	if allocs > ceiling {
		t.Errorf("Advance allocates %.0f objects a day, ceiling %d", allocs, ceiling)
	}
}

// TestMaterializeAllocs pins what serving a chain day costs on top of
// its Advance: one Materialize builds the day's five ranking maps, its
// histogram and its member set — per map, not per route or instance.
// Every day of the series is materialized in turn, as a reload that
// lands one day at a time does, so each Advance also clones the two
// per-AS maps of its served predecessor; measured together, Advance and
// Materialize cost what one Advance did while every day materialized
// (55 allocations, 48 kB).
func TestMaterializeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ix, readers := seriesChain(t)
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	var allocs, bytes uint64
	var before, after runtime.MemStats
	for _, dr := range readers {
		var err error
		if ix, err = ix.Advance(dr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		err = ix.Materialize()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	days := float64(len(readers))
	perAllocs, perBytes := float64(allocs)/days, float64(bytes)/days
	t.Logf("%.0f allocs, %.0f B per Materialize over %.0f days", perAllocs, perBytes, days)
	const allocCeiling, byteCeiling = 48, 20_000
	if perAllocs > allocCeiling || perBytes > byteCeiling {
		t.Errorf("Materialize allocates %.0f objects and %.0f B a day, ceilings %d and %d", perAllocs, perBytes, allocCeiling, byteCeiling)
	}
}

// advanceFuzzWorld is what a FuzzAdvance script edits with: a small
// base day and pools of prefixes, peers, attribute values and
// membership candidates, all cut from one generated DE-CIX workload so
// the community sets (standard, extended, large, nil and empty) are the
// realistic ones.
type advanceFuzzWorld struct {
	scheme    *dictionary.Scheme
	base      *collector.Snapshot
	prefixes  []netip.Prefix
	peers     []uint32
	attrs     []bgp.Route // donors: communities, paths' tails, next hops
	flippable []collector.Member
}

func newAdvanceFuzzWorld(tb testing.TB) *advanceFuzzWorld {
	es, scheme := edgeSnapshot(tb)
	gs, _ := genSnapshot(tb, "DE-CIX")
	w := &advanceFuzzWorld{scheme: scheme, base: es}
	for i := 0; i < 24; i++ {
		w.prefixes = append(w.prefixes, netutil.SyntheticV4Prefix(1000+i))
	}
	for i := 0; i < 8; i++ {
		w.prefixes = append(w.prefixes, netutil.SyntheticV6Prefix(1000+i))
	}
	for i := range es.Routes {
		w.prefixes = append(w.prefixes, es.Routes[i].Prefix)
	}
	// Donors spread over the generated table; every peer-targeted AS
	// they name can join or leave the member list, and so can the
	// announcing peers.
	seenPeer, seenFlip := map[uint32]bool{}, map[uint32]bool{}
	flip := func(m collector.Member) {
		if !seenFlip[m.ASN] && len(w.flippable) < 32 {
			seenFlip[m.ASN] = true
			w.flippable = append(w.flippable, m)
		}
	}
	for i := 0; i < len(gs.Routes) && len(w.attrs) < 48; i += len(gs.Routes)/48 + 1 {
		r := gs.Routes[i]
		w.attrs = append(w.attrs, r)
		if p := r.PeerAS(); !seenPeer[p] && len(w.peers) < 6 {
			seenPeer[p] = true
			w.peers = append(w.peers, p)
			flip(collector.Member{ASN: p, IPv4: true, IPv6: true})
		}
		for _, c := range r.Communities {
			if cl := scheme.Classify(c); cl.Target == dictionary.TargetPeer {
				flip(collector.Member{ASN: cl.TargetASN, IPv4: true, IPv6: cl.TargetASN%2 == 0})
			}
		}
	}
	w.peers = append(w.peers, 64999) // an announcing AS that is never a member
	return w
}

// Script opcodes: every op is three bytes, {op, a, b}.
const (
	fuzzEndDay = iota // emit the day
	fuzzAdd           // announce prefix a from peer b, attributes from donor a^b
	fuzzDel           // withdraw route a
	fuzzFlap          // attribute-only change on route a: MED and next hop move, communities stay
	fuzzRetag         // route a takes donor b's community sets
	fuzzRepath        // route a keeps its peer and takes donor b's path tail
	fuzzRepeer        // route a moves to peer b (a withdrawal plus an announcement)
	fuzzMember        // candidate a joins or leaves the member list
	fuzzClear         // withdraw everything: an empty day
	fuzzOps
)

// advanceFuzzDays plays a script against the world and returns the
// days after the base, each normalized and independent of the others.
func (w *advanceFuzzWorld) advanceFuzzDays(script []byte) []*collector.Snapshot {
	const maxDays, maxOps = 8, 96
	day := *w.base
	routes := slices.Clone(w.base.Routes)
	members := slices.Clone(w.base.Members)
	var days []*collector.Snapshot
	emit := func() {
		s := day
		s.Date = fmt.Sprintf("2021-10-%02d", 5+len(days))
		s.Routes = slices.Clone(routes)
		s.Members = slices.Clone(members)
		s.Normalize()
		days = append(days, &s)
	}
	has := func(p netip.Prefix, peer uint32) bool {
		return slices.ContainsFunc(routes, func(r bgp.Route) bool { return r.Prefix == p && r.PeerAS() == peer })
	}
	for i := 0; i+2 < len(script) && i < 3*maxOps && len(days) < maxDays; i += 3 {
		op, a, b := script[i]%fuzzOps, int(script[i+1]), int(script[i+2])
		if op != fuzzEndDay && op != fuzzAdd && op != fuzzMember && len(routes) == 0 {
			continue
		}
		switch op {
		case fuzzEndDay:
			emit()
		case fuzzAdd:
			p, peer := w.prefixes[a%len(w.prefixes)], w.peers[b%len(w.peers)]
			if has(p, peer) {
				continue
			}
			r := w.attrs[(a^b)%len(w.attrs)]
			r.Prefix = p
			r.ASPath = append(bgp.ASPath{peer}, r.ASPath[1:]...)
			routes = append(routes, r)
		case fuzzDel:
			routes = slices.Delete(routes, a%len(routes), a%len(routes)+1)
		case fuzzFlap:
			r := &routes[a%len(routes)]
			r.MED += uint32(b) + 1
			r.NextHop = w.attrs[b%len(w.attrs)].NextHop
		case fuzzRetag:
			r, d := &routes[a%len(routes)], &w.attrs[b%len(w.attrs)]
			r.Communities, r.ExtCommunities, r.LargeCommunities = d.Communities, d.ExtCommunities, d.LargeCommunities
		case fuzzRepath:
			r := &routes[a%len(routes)]
			r.ASPath = append(bgp.ASPath{r.PeerAS()}, w.attrs[b%len(w.attrs)].ASPath[1:]...)
		case fuzzRepeer:
			r, peer := &routes[a%len(routes)], w.peers[b%len(w.peers)]
			if has(r.Prefix, peer) {
				continue
			}
			r.ASPath = append(bgp.ASPath{peer}, r.ASPath[1:]...)
		case fuzzMember:
			m := w.flippable[a%len(w.flippable)]
			if i := slices.IndexFunc(members, func(x collector.Member) bool { return x.ASN == m.ASN }); i >= 0 {
				members = slices.Delete(members, i, i+1)
			} else {
				members = append(members, m)
			}
		case fuzzClear:
			routes = routes[:0]
		}
	}
	if len(days) == 0 {
		emit()
	}
	return days
}

// FuzzAdvance drives arbitrary N-day chains through the DeltaReader
// source of the fold. The script edits a base day (announcements,
// withdrawals, attribute-only flaps, re-tags, path changes within and
// across peers, membership flips, empty days); each day is
// delta-encoded, and after every step the advanced index's Counts must
// equal the oracle over the day a DeltaApplier materializes from the
// same bytes. A subset of the days the script picks (by its FNV hash),
// and the tip, is materialized before the next Advance supersedes it,
// and must then equal the oracle on every accessor. Every day is read
// again after later ones have advanced, and a superseded day must
// still refuse to advance and to materialize.
func FuzzAdvance(f *testing.F) {
	w := newAdvanceFuzzWorld(f)
	day0 := binBytes(f, w.base)

	op := func(ops ...byte) []byte { return ops }
	f.Add(op(fuzzEndDay, 0, 0))                                                                             // a day with no change
	f.Add(op(fuzzAdd, 1, 0, fuzzAdd, 1, 1, fuzzAdd, 30, 2, fuzzEndDay, 0, 0, fuzzDel, 0, 0, fuzzDel, 5, 0)) // adds then dels
	f.Add(op(fuzzFlap, 2, 7, fuzzFlap, 3, 9, fuzzEndDay, 0, 0, fuzzRetag, 2, 11, fuzzRetag, 4, 0))          // index-invisible day, then re-tags
	f.Add(op(fuzzRepath, 1, 3, fuzzRepeer, 2, 1, fuzzRepeer, 3, 6, fuzzEndDay, 0, 0, fuzzRepeer, 2, 0))     // path swaps within and across peers
	f.Add(op(fuzzMember, 0, 0, fuzzMember, 7, 0, fuzzEndDay, 0, 0, fuzzMember, 0, 0, fuzzMember, 9, 0))     // membership flips, back and forth
	f.Add(op(fuzzClear, 0, 0, fuzzEndDay, 0, 0, fuzzEndDay, 0, 0, fuzzAdd, 4, 4, fuzzAdd, 25, 1))           // empty days and the recovery
	f.Add(op(fuzzAdd, 40, 6, fuzzRetag, 0, 5, fuzzEndDay, 0, 0, fuzzMember, 3, 0, fuzzDel, 1, 0, fuzzEndDay, 0, 0,
		fuzzFlap, 0, 1, fuzzRepeer, 1, 2, fuzzEndDay, 0, 0, fuzzClear, 0, 0, fuzzEndDay, 0, 0, fuzzAdd, 2, 2)) // everything, five days

	f.Fuzz(func(t *testing.T, script []byte) {
		enc, err := collector.NewDeltaEncoder(w.base)
		if err != nil {
			t.Fatal(err)
		}
		applier, err := collector.NewDeltaApplier(w.base)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := collector.NewSnapshotReaderBytes(day0)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := IndexSeriesFromReader(sr, w.scheme)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New32a()
		h.Write(script)
		pick := h.Sum32()
		// materialize runs the owner's Materialize on day d when the
		// script picks it (or it is the tip) and checks every accessor.
		materialize := func(d int, ix *Index, truth *collector.Snapshot, tip bool) {
			t.Helper()
			if pick>>(d%32)&1 == 0 && !tip {
				return
			}
			if err := ix.Materialize(); err != nil {
				t.Fatalf("day %d materialize: %v", d, err)
			}
			checkIndexMatchesDirect(t, fmt.Sprintf("day%d", d), ix, truth, w.scheme)
		}
		checkCountsMatchDirect(t, "day0", ix, w.base)
		chain := []*Index{ix}
		truth := []*collector.Snapshot{w.base}
		var firstDelta []byte
		for d, day := range w.advanceFuzzDays(script) {
			buf, err := enc.Encode(day)
			if err != nil {
				t.Fatalf("day %d encode: %v", d+1, err)
			}
			if firstDelta == nil {
				firstDelta = buf
			}
			dr, err := collector.NewDeltaReader(buf)
			if err != nil {
				t.Fatalf("day %d: %v", d+1, err)
			}
			mat, err := applier.Apply(dr)
			if err != nil {
				t.Fatalf("day %d apply: %v", d+1, err)
			}
			prev := len(chain) - 1
			materialize(prev, chain[prev], truth[prev], false)
			next, err := chain[prev].Advance(dr)
			if err != nil {
				t.Fatalf("day %d advance: %v", d+1, err)
			}
			checkCountsMatchDirect(t, fmt.Sprintf("day%d", d+1), next, mat)
			chain = append(chain, next)
			truth = append(truth, mat)
		}
		tip := len(chain) - 1
		materialize(tip, chain[tip], truth[tip], true)
		for d := range chain {
			tag := fmt.Sprintf("day%d re-read", d)
			checkCountsMatchDirect(t, tag, chain[d], truth[d])
			if !chain[d].countsOnly {
				checkIndexMatchesDirect(t, tag, chain[d], truth[d], w.scheme)
			}
		}
		dr, err := collector.NewDeltaReader(firstDelta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain[0].Advance(dr); err == nil {
			t.Error("a superseded day advanced")
		}
		if chain[0].countsOnly && chain[0].Materialize() == nil {
			t.Error("a superseded day materialized")
		}
	})
}
