package ixpgen

import (
	"fmt"
	"math/rand"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/netutil"
)

// Evolved daily series: the delta-chain counterpart of GenerateDay.
//
// GenerateDay regenerates every day from a related seed, which is
// right for scale calibration but wrong for storage realism — two
// adjacent days share routes only as far as their seeds collide. A
// real route server's consecutive daily RIBs instead overlap almost
// completely (the redundancy delta snapshots exploit), so EvolveSeries
// produces each day by *editing* the previous one: a small fraction of
// routes withdrawn, re-tagged or MED-flapped, a matching trickle of
// fresh announcements, weekly membership churn, and the §3 collection
// valleys as one-day drops that recover the next day.

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
// routes edited per day (withdrawn + re-tagged + flapped, with a
// matching share of fresh announcements); <= 0 defaults to 0.03,
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
	for d := 1; d < o.Days; d++ {
		date := dayDate(d)
		rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(d)))
		next := evolveDay(cur, date, rng, churn, &freshPrefix)
		if d%7 == 0 {
			churnMembers(next, rng, &joinerASN)
		}
		next.Normalize()
		emit := next
		if isValleyDay(o, d) {
			emit = shrinkSnapshot(next, valleyDepth, rng)
			emit.Normalize()
		}
		if err := fn(d, emit); err != nil {
			return err
		}
		cur = next // the healthy series continues past a valley
	}
	return nil
}

func isValleyDay(o TemporalOptions, d int) bool {
	for _, v := range o.ValleyDays {
		if v == d {
			return true
		}
	}
	return false
}

// evolveDay derives one day from the previous one. prev is never
// mutated: kept routes are copied by value with their attribute slices
// shared, and edited routes are cloned before their slices change.
func evolveDay(prev *collector.Snapshot, date string, rng *rand.Rand, churn float64, freshPrefix *int) *collector.Snapshot {
	next := &collector.Snapshot{
		IXP:           prev.IXP,
		Date:          date,
		Members:       append([]collector.Member(nil), prev.Members...),
		FilteredCount: prev.FilteredCount,
	}
	perOp := churn / 3
	routes := make([]bgp.Route, 0, len(prev.Routes)+len(prev.Routes)/16+4)
	for i := range prev.Routes {
		r := prev.Routes[i]
		switch roll := rng.Float64(); {
		case roll < perOp: // withdrawn
			continue
		case roll < 2*perOp: // re-tagged
			nr := r.Clone()
			if n := len(nr.Communities); n > 0 && rng.Intn(2) == 0 {
				nr.Communities[rng.Intn(n)] = memberPrivate(nr.PeerAS(), rng)
			} else {
				nr.Communities = append(nr.Communities, memberPrivate(nr.PeerAS(), rng))
			}
			routes = append(routes, nr)
		case roll < 3*perOp: // MED flap (scalar change on the copy)
			r.MED = uint32(rng.Intn(200))
			routes = append(routes, r)
		default:
			routes = append(routes, r)
		}
	}
	// Fresh announcements reuse an existing route's attributes under a
	// prefix no other day ever announced.
	for n := int(float64(len(prev.Routes))*perOp) + 1; n > 0 && len(routes) > 0; n-- {
		nr := routes[rng.Intn(len(routes))].Clone()
		if nr.IsIPv6() {
			nr.Prefix = netutil.SyntheticV6Prefix(*freshPrefix)
		} else {
			nr.Prefix = netutil.SyntheticV4Prefix(*freshPrefix)
		}
		*freshPrefix++
		routes = append(routes, nr)
	}
	next.Routes = routes
	return next
}

// churnMembers retires the series' last member (withdrawing its
// routes) and admits a fresh one with no routes yet — the weekly
// membership drift that flips targeted ASNs between the member and
// non-member sides of the §5.5 aggregates.
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
	s.Members = append(s.Members, collector.Member{
		ASN:  asn,
		Name: fmt.Sprintf("AS%d Joiner", asn),
		IPv4: true,
		IPv6: rng.Intn(2) == 0,
	})
}

// shrinkSnapshot is a valley day: the collection keeps only depth of
// the members and routes, losing the rest to the outage.
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
