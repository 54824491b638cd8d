package ixpgen

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/netutil"
)

// Evolved daily series: the one generator of a twelve-week collection.
//
// A real route server's consecutive daily RIBs overlap almost
// completely (the redundancy delta snapshots exploit), so EvolveSeries
// produces each day by *editing* the previous one: a small fraction of
// routes withdrawn, re-tagged or MED-flapped, each withdrawal answered
// by one announcement, weekly membership churn, and the §3 collection
// valleys as one-day drops that recover the next day. A generated
// analysis lab, `ixpgen` and the benchmark's datasets all read this
// one series.

const (
	// evolvePrefixBase numbers the fresh prefixes evolved days
	// announce. SyntheticV4Prefix maps it to 11.0.0.0/24, the first
	// index past 10.0.0.0/8, and it sits above the counter Generate's
	// tables share across both families (≈ 517k for DE-CIX at scale 1),
	// so an evolved announcement never collides with an existing route.
	// A long series at a large scale runs on into emitInvalid's 900k+
	// indexes; that is harmless, because the invalid announcements are
	// never part of a snapshot, and a snapshot is what a day evolves.
	evolvePrefixBase = 655360
	// evolveJoinerBase numbers the ASNs of members joining mid-series:
	// above the synthetic member pool (30000+), below the downstream
	// hop pool (100000+).
	evolveJoinerBase = 59000
)

// EvolveSeries generates an o.Days-long daily series for p by evolving
// day 0 (a plain Generate at o.Scale) with per-day churn, calling fn
// once per day in date order. churn is the approximate fraction of
// routes edited per day (withdrawn + re-tagged + flapped, every
// withdrawal answered by one announcement); <= 0 defaults to 0.03,
// within the paper's "under 4%" daily variation. Every seventh day one
// member departs (its routes withdrawn) and a fresh one joins, so
// member-dependent aggregates see churn too. o.ValleyDays emit a
// one-day collapse to valleyDepth of the healthy series, which
// continues unharmed the next day.
//
// Each emitted snapshot is freshly allocated and normalized; fn may
// retain it. The series is deterministic in (p, o, churn).
func EvolveSeries(p Profile, o TemporalOptions, churn float64, fn func(day int, snap *collector.Snapshot) error) error {
	(&o).setDefaults()
	if churn <= 0 {
		churn = 0.03
	}
	w, err := Generate(p, Options{Seed: o.Seed, Scale: o.Scale})
	if err != nil {
		return err
	}
	cur := w.Snapshot(dayDate(0))
	if err := fn(0, cur); err != nil {
		return err
	}
	freshPrefix := evolvePrefixBase
	joinerASN := uint32(evolveJoinerBase)
	var kept []bgp.Route
	for d := 1; d < o.Days; d++ {
		rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(d)))
		var next *collector.Snapshot
		next, kept = evolveDay(cur, dayDate(d), rng, churn, &freshPrefix, kept)
		if d%7 == 0 {
			churnMembers(next, rng, &joinerASN)
		}
		emit := next
		if slices.Contains(o.ValleyDays, d) {
			emit = shrinkSnapshot(next, valleyDepth, rng)
		}
		if err := fn(d, emit); err != nil {
			return err
		}
		cur = next // the healthy series continues past a valley
	}
	return nil
}

// withdrawal is a withdrawn route's prefix and the index in the kept
// routes where that prefix's survivors start.
type withdrawal struct {
	prefix netip.Prefix
	at     int
}

// evolveDay derives one day from the previous one. prev is never
// mutated: kept routes are copied by value with their attribute slices
// shared, and edited routes are cloned before their slices change.
//
// Every withdrawal is answered by one announcement of the same family,
// so route and prefix counts stay level: the withdrawn prefix under the
// attributes of a kept route whose peer does not hold it yet, or a
// never-used prefix when no such route is left or the prefix fails the
// import bounds (a blackhole /32). The kept routes are in prev's order,
// the re-used prefixes arrive in it and the fresh ones count up, so the
// day is a merge of a handful of runs, not a sort. kept is the caller's
// scratch space, returned for the next day.
func evolveDay(prev *collector.Snapshot, date string, rng *rand.Rand, churn float64, freshPrefix *int, kept []bgp.Route) (*collector.Snapshot, []bgp.Route) {
	perOp := churn / 3
	kept = kept[:0]
	var withdrawn []withdrawal
	at := 0
	for i := range prev.Routes {
		r := prev.Routes[i]
		if i == 0 || r.Prefix != prev.Routes[i-1].Prefix {
			at = len(kept)
		}
		switch roll := rng.Float64(); {
		case roll < perOp: // withdrawn
			withdrawn = append(withdrawn, withdrawal{r.Prefix, at})
		case roll < 2*perOp: // re-tagged
			nr := r.Clone()
			slot := len(nr.Communities) // a new community, or one replaced
			if slot > 0 && rng.Intn(2) == 0 {
				slot = rng.Intn(slot)
			}
			// A blackhole host route keeps its tag: without it the /32
			// fails the import filter.
			if c := memberPrivate(nr.PeerAS(), rng); slot < len(nr.Communities) && nr.Communities[slot] != bgp.BlackholeWellKnown {
				nr.Communities[slot] = c
			} else {
				nr.Communities = append(nr.Communities, c)
			}
			kept = append(kept, nr)
		case roll < 3*perOp: // MED flap (scalar change on the copy)
			r.MED = uint32(rng.Intn(200))
			kept = append(kept, r)
		default:
			kept = append(kept, r)
		}
	}

	v6 := sort.Search(len(kept), func(i int) bool { return kept[i].IsIPv6() })
	var reused, fresh []bgp.Route
	var holders []uint32 // the peers holding the current withdrawal's prefix
withdrawals:
	for k, w := range withdrawn {
		if k == 0 || w.prefix != withdrawn[k-1].prefix {
			holders = holders[:0]
			for j := w.at; j < len(kept) && kept[j].Prefix == w.prefix; j++ {
				holders = append(holders, kept[j].PeerAS())
			}
		}
		family := kept[:v6]
		if w.prefix.Addr().Is6() {
			family = kept[v6:]
		}
		if len(family) == 0 {
			continue
		}
		start := rng.Intn(len(family))
		if netutil.InPrefixBounds(w.prefix) {
			for n := range family {
				if nr := family[(start+n)%len(family)]; !slices.Contains(holders, nr.PeerAS()) {
					nr.Prefix = w.prefix
					reused = append(reused, nr)
					holders = append(holders, nr.PeerAS())
					continue withdrawals
				}
			}
		}
		nr := family[start]
		if nr.IsIPv6() {
			nr.Prefix = netutil.SyntheticV6Prefix(*freshPrefix)
		} else {
			nr.Prefix = netutil.SyntheticV4Prefix(*freshPrefix)
		}
		*freshPrefix++
		fresh = append(fresh, nr)
	}
	return &collector.Snapshot{
		IXP:           prev.IXP,
		Date:          date,
		Members:       append([]collector.Member(nil), prev.Members...),
		Routes:        collector.MergeRouteBlocks([][]bgp.Route{kept, reused, fresh}),
		FilteredCount: prev.FilteredCount,
	}, kept
}

// churnMembers retires the series' last member (withdrawing its
// routes) and admits a fresh one with no routes yet — the weekly
// membership drift that flips targeted ASNs between the member and
// non-member sides of the §5.5 aggregates. The joiner takes its place
// in ASN order.
func churnMembers(s *collector.Snapshot, rng *rand.Rand, joinerASN *uint32) {
	if len(s.Members) > 9 {
		gone := s.Members[len(s.Members)-1].ASN
		s.Members = s.Members[:len(s.Members)-1]
		kept := s.Routes[:0]
		for _, r := range s.Routes {
			if r.PeerAS() != gone {
				kept = append(kept, r)
			}
		}
		s.Routes = kept
	}
	asn := *joinerASN
	*joinerASN++
	at, _ := slices.BinarySearchFunc(s.Members, asn, func(m collector.Member, asn uint32) int { return cmp.Compare(m.ASN, asn) })
	s.Members = slices.Insert(s.Members, at, collector.Member{
		ASN:  asn,
		Name: fmt.Sprintf("AS%d Joiner", asn),
		IPv4: true,
		IPv6: rng.Intn(2) == 0,
	})
}

// shrinkSnapshot is a valley day: the collection keeps only depth of
// the members and routes, losing the rest to the outage. What it keeps
// stays in s's order.
func shrinkSnapshot(s *collector.Snapshot, depth float64, rng *rand.Rand) *collector.Snapshot {
	v := &collector.Snapshot{
		IXP:           s.IXP,
		Date:          s.Date,
		FilteredCount: s.FilteredCount,
	}
	nm := int(float64(len(s.Members)) * depth)
	v.Members = append([]collector.Member(nil), s.Members[:nm]...)
	v.Routes = make([]bgp.Route, 0, int(float64(len(s.Routes))*depth)+1)
	for i := range s.Routes {
		if rng.Float64() < depth {
			v.Routes = append(v.Routes, s.Routes[i])
		}
	}
	return v
}
