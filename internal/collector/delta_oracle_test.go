package collector

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"ixplight/internal/bgp"
)

// referenceDeltaEncoder is DeltaEncoder as it was before Encode stopped
// keying every route twice, kept as the oracle for its bytes: it
// interns all of day N's routes up front, whether or not they changed,
// and takes day N's digest from SnapshotDigest — a second, from-scratch
// interning of the same attributes.
type referenceDeltaEncoder struct {
	tabs    *deltaTables
	prev    *Snapshot
	prevIDs []rowIDs
	digest  [sha256.Size]byte
	scratch []byte
}

func newReferenceDeltaEncoder(t testing.TB, base *Snapshot) *referenceDeltaEncoder {
	t.Helper()
	if err := checkRouteOrder(base.Routes); err != nil {
		t.Fatal(err)
	}
	e := &referenceDeltaEncoder{tabs: newDeltaTables(), prev: base, digest: SnapshotDigest(base)}
	e.prevIDs = make([]rowIDs, len(base.Routes))
	for i := range base.Routes {
		e.prevIDs[i], e.scratch = e.tabs.internRoute(e.scratch, &base.Routes[i], nil)
	}
	return e
}

func (e *referenceDeltaEncoder) encode(t testing.TB, next *Snapshot) []byte {
	t.Helper()
	if err := checkRouteOrder(next.Routes); err != nil {
		t.Fatal(err)
	}
	base, baseSizes := e.prev, e.tabs.sizes()
	var ext tableExt
	nextIDs := make([]rowIDs, len(next.Routes))
	for i := range next.Routes {
		nextIDs[i], e.scratch = e.tabs.internRoute(e.scratch, &next.Routes[i], &ext)
	}
	var (
		ops []byte
		run uint64
	)
	flushRun := func() {
		if run > 0 {
			ops = appendUvarint(append(ops, byte(DeltaCopy)), run)
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
		p := appendPrefix(nil, r.Prefix)
		return append(appendUvarint(b, uint64(len(p))), p...)
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
		case c < 0:
			flushRun()
			ops = appendAttrs(appendOpPrefix(append(ops, byte(DeltaDel)), &base.Routes[i]), e.prevIDs[i], &base.Routes[i])
			i++
		case c > 0:
			flushRun()
			ops = appendAttrs(appendOpPrefix(append(ops, byte(DeltaAdd)), &next.Routes[j]), nextIDs[j], &next.Routes[j])
			j++
		default:
			br, nr := &base.Routes[i], &next.Routes[j]
			if e.prevIDs[i] == nextIDs[j] && br.Origin == nr.Origin && br.MED == nr.MED && br.LocalPref == nr.LocalPref {
				run++
			} else {
				flushRun()
				ops = appendOpPrefix(append(ops, byte(DeltaChange)), nr)
				ops = appendAttrs(appendAttrs(ops, e.prevIDs[i], br), nextIDs[j], nr)
			}
			i++
			j++
		}
	}
	flushRun()

	self := SnapshotDigest(next)
	hdr := appendString(nil, base.Date)
	hdr = append(hdr, e.digest[:]...)
	hdr = append(hdr, self[:]...)
	hdr = appendUvarint(hdr, uint64(len(base.Routes)))
	hdr = appendUvarint(hdr, uint64(len(next.Routes)))
	var hdrFlags byte
	if next.Routes == nil {
		hdrFlags |= 1
	}
	hdr = append(hdr, hdrFlags)
	snapHdr := appendHeaderSection(nil, next)
	hdr = append(appendUvarint(hdr, uint64(len(snapHdr))), snapHdr...)

	buf := appendUvarint([]byte(deltaMagic), deltaVersion)
	buf = append(appendUvarint(buf, uint64(len(hdr))), hdr...)
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
	return buf
}

// deepCloneSnapshot copies a snapshot so that no route shares an
// attribute slice with the original — what two days' crawls look like.
func deepCloneSnapshot(s *Snapshot) *Snapshot {
	c := *s
	c.Routes = nil
	if s.Routes != nil {
		c.Routes = make([]bgp.Route, len(s.Routes))
		for i, r := range s.Routes {
			c.Routes[i] = r.Clone()
		}
	}
	return &c
}

// deltaOracleChains are the chains delta_test.go encodes, plus days
// that stress what the single keying pass skips or reorders.
func deltaOracleChains() map[string][]*Snapshot {
	chain := func(base *Snapshot, days int, seed int64) []*Snapshot {
		base.Normalize()
		series := []*Snapshot{base}
		for d := 1; d < days; d++ {
			series = append(series, churnSnapshot(series[d-1], "2021-10-05", seed+int64(d)))
		}
		return series
	}
	chains := map[string][]*Snapshot{
		"sample":       chain(sampleSnapshot(), 6, 0),
		"golden":       chain(goldenSnapshot(), 4, 10),
		"bulk":         chain(bulkSnapshot(3000), 4, 20),
		"continuation": chain(sampleSnapshot(), 3, 9),
	}
	// Days whose routes share nothing with yesterday's in memory, an
	// identical day, an emptied day (nil, then empty) and a refill.
	bulk := bulkSnapshot(500)
	same, cloned := *bulk, deepCloneSnapshot(churnSnapshot(bulk, "2021-10-05", 3))
	none, empty := *bulk, *bulk
	none.Routes, empty.Routes = nil, []bgp.Route{}
	// nil ↔ empty attribute lists are different table entries.
	flipped := deepCloneSnapshot(bulk)
	for i := range flipped.Routes {
		if r := &flipped.Routes[i]; i%3 == 0 {
			r.ExtCommunities, r.LargeCommunities = []bgp.ExtendedCommunity{}, []bgp.LargeCommunity{}
		}
	}
	chains["edges"] = []*Snapshot{bulk, &same, cloned, &none, &empty, deepCloneSnapshot(bulk), flipped, deepCloneSnapshot(bulk)}
	return chains
}

// TestEncodeMatchesReferenceEncoder: every delta of every chain is
// byte-equal to what the two-pass encoder produced, and the digest the
// encoder derives from its chain ids is SnapshotDigest of the day.
func TestEncodeMatchesReferenceEncoder(t *testing.T) {
	for name, series := range deltaOracleChains() {
		enc, err := NewDeltaEncoder(series[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc.BaseDigest() != SnapshotDigest(series[0]) {
			t.Fatalf("%s: base digest is not SnapshotDigest(base)", name)
		}
		ref := newReferenceDeltaEncoder(t, series[0])
		app, err := NewDeltaApplier(series[0])
		if err != nil {
			t.Fatal(err)
		}
		for d, day := range series[1:] {
			got, err := enc.Encode(day)
			if err != nil {
				t.Fatalf("%s day %d: %v", name, d+1, err)
			}
			if want := ref.encode(t, day); !bytes.Equal(got, want) {
				t.Fatalf("%s day %d: delta differs from the reference encoder's (%d vs %d bytes)", name, d+1, len(got), len(want))
			}
			if enc.BaseDigest() != SnapshotDigest(day) {
				t.Fatalf("%s day %d: self digest is not SnapshotDigest(next)", name, d+1)
			}
			dr, err := NewDeltaReader(got)
			if err != nil {
				t.Fatal(err)
			}
			if dr.SelfDigest() != SnapshotDigest(day) {
				t.Fatalf("%s day %d: the delta carries a self digest that is not SnapshotDigest(next)", name, d+1)
			}
			applied, err := app.Apply(dr)
			if err != nil {
				t.Fatalf("%s day %d: %v", name, d+1, err)
			}
			if !reflect.DeepEqual(applied, day) {
				t.Fatalf("%s day %d: applying the delta does not give the day back", name, d+1)
			}
		}
	}
}

// alternatingDays returns a base and two days that each miss a
// different 1 % of its routes, so that going from one to the other
// withdraws 1 % and re-announces 1 %. No route shares memory with
// another day's.
func alternatingDays(n int) (base *Snapshot, days [2]*Snapshot) {
	base = bulkSnapshot(n)
	for d := range days {
		day := &Snapshot{IXP: base.IXP, Date: "2021-10-05", Members: base.Members}
		for i, r := range base.Routes {
			if i%100 != 50*d {
				day.Routes = append(day.Routes, r.Clone())
			}
		}
		days[d] = day
	}
	return base, days
}

// TestEncodeAllocsOnALowChurnDay pins what the single keying pass
// bought: encoding a 1 %-churn day of 19 800 routes cost the two-pass
// encoder 59 927 allocations (three per route: an address marshalled
// for the next-hop key, another for the prefix column, index columns
// and fresh intern maps for the digest); it must stay under a third of
// that. It is in fact a few dozen, whatever the table size.
func TestEncodeAllocsOnALowChurnDay(t *testing.T) {
	const seedAllocs = 59927
	base, days := alternatingDays(20000)
	enc, err := NewDeltaEncoder(base)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := enc.Encode(days[k%2]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("Encode of a 1%%-churn day: %.0f allocations for %d routes (seed: %d)", allocs, len(days[0].Routes), seedAllocs)
	if allocs > seedAllocs/3 {
		t.Errorf("Encode of a 1%%-churn day allocates %.0f times, want ≤ %d (a third of the seed's %d)", allocs, seedAllocs/3, seedAllocs)
	}
}
