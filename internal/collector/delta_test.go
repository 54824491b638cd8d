package collector

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ixplight/internal/bgp"
)

// EncodeDelta encodes next as a one-shot delta against base: a fresh
// DeltaEncoder, so ids restart from base.
func EncodeDelta(base, next *Snapshot) ([]byte, error) {
	e, err := NewDeltaEncoder(base)
	if err != nil {
		return nil, err
	}
	return e.Encode(next)
}

// ApplyDelta materializes delta against base in one shot.
func ApplyDelta(base *Snapshot, delta []byte) (*Snapshot, error) {
	d, err := NewDeltaReader(delta)
	if err != nil {
		return nil, err
	}
	a, err := NewDeltaApplier(base)
	if err != nil {
		return nil, err
	}
	return a.Apply(d)
}

// churnSnapshot derives a plausible next-day snapshot from prev:
// withdraw a fraction of routes, re-tag another fraction, announce a
// few fresh prefixes reusing existing attribute sets, and bump the
// date. Deterministic per (prev, seed).
func churnSnapshot(prev *Snapshot, date string, seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	next := &Snapshot{
		IXP:           prev.IXP,
		Date:          date,
		FilteredCount: prev.FilteredCount,
		Partial:       prev.Partial,
		Members:       append([]Member(nil), prev.Members...),
		MemberErrors:  append([]MemberError(nil), prev.MemberErrors...),
	}
	for _, r := range prev.Routes {
		switch rng.Intn(10) {
		case 0: // withdrawn
			continue
		case 1: // re-tagged
			r.Communities = append(append([]bgp.Community(nil), r.Communities...),
				bgp.NewCommunity(65000, uint16(rng.Intn(500))))
		case 2: // path attr flap
			r.MED = uint32(rng.Intn(200))
		}
		next.Routes = append(next.Routes, r)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		if len(prev.Routes) == 0 {
			break
		}
		tmpl := prev.Routes[rng.Intn(len(prev.Routes))]
		tmpl.Prefix = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{11, byte(seed), byte(rng.Intn(256)), 0}), 24)
		next.Routes = append(next.Routes, tmpl)
	}
	next.Normalize()
	return next
}

func TestDeltaRoundTrip(t *testing.T) {
	base := goldenSnapshot()
	base.Normalize()
	next := churnSnapshot(base, "2021-10-05", 1)
	next.Members = append(next.Members, Member{ASN: 64999, Name: "Newcomer", IPv4: true})
	next.FilteredCount++

	delta, err := EncodeDelta(base, next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, got) {
		t.Fatalf("delta round trip mismatch:\n want %+v\n got  %+v", next, got)
	}
	if SnapshotDigest(got) != SnapshotDigest(next) {
		t.Fatal("round-tripped snapshot digest differs")
	}
}

func TestDeltaChain(t *testing.T) {
	base := sampleSnapshot()
	base.Normalize()
	const days = 6
	series := []*Snapshot{base}
	for d := 1; d < days; d++ {
		series = append(series, churnSnapshot(series[d-1], "2021-10-05", int64(d)))
	}

	enc, err := NewDeltaEncoder(base)
	if err != nil {
		t.Fatal(err)
	}
	var deltas [][]byte
	for d := 1; d < days; d++ {
		buf, err := enc.Encode(series[d])
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		deltas = append(deltas, buf)
	}

	app, err := NewDeltaApplier(base)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < days; d++ {
		dr, err := NewDeltaReader(deltas[d-1])
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		if dr.BaseRoutes() != len(series[d-1].Routes) || dr.NextRoutes() != len(series[d].Routes) {
			t.Fatalf("day %d: route counts %d/%d, want %d/%d",
				d, dr.BaseRoutes(), dr.NextRoutes(), len(series[d-1].Routes), len(series[d].Routes))
		}
		got, err := app.Apply(dr)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		if !reflect.DeepEqual(series[d], got) {
			t.Fatalf("day %d diverged from original", d)
		}
		if SnapshotDigest(got) != SnapshotDigest(series[d]) {
			t.Fatalf("day %d: content digest mismatch", d)
		}
		if app.Digest() != dr.SelfDigest() || dr.SelfDigest() != sha256.Sum256(deltas[d-1][:len(deltas[d-1])-sha256.Size]) {
			t.Fatalf("day %d: chain digest is not the sha256 of the delta without its seal", d)
		}
		if d+1 < days {
			next, err := NewDeltaReader(deltas[d])
			if err != nil {
				t.Fatal(err)
			}
			if next.BaseDigest() != dr.SelfDigest() {
				t.Fatalf("day %d: the next delta does not name this one as its base", d)
			}
		}
	}

	// A delta never applies out of order or to the wrong base: day 2's
	// delta against the original base must be refused by digest.
	if len(deltas) >= 2 {
		if _, err := ApplyDelta(base, deltas[1]); !errors.Is(err, ErrDeltaBaseMismatch) {
			t.Fatalf("out-of-order apply: got %v, want ErrDeltaBaseMismatch", err)
		}
	}
}

// TestDeltaApplierEncoderContinuation pins the Append workflow:
// reconstruct an existing chain with a DeltaApplier, then continue it
// with Applier.Encoder(). Because applier and encoder grow the same
// chain tables in lockstep, the continuation's bytes are identical to
// what the original encoder would have produced.
func TestDeltaApplierEncoderContinuation(t *testing.T) {
	base := sampleSnapshot()
	base.Normalize()
	day1 := churnSnapshot(base, "2021-10-05", 10)
	day2 := churnSnapshot(day1, "2021-10-06", 11)

	enc, err := NewDeltaEncoder(base)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := enc.Encode(day1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := enc.Encode(day2)
	if err != nil {
		t.Fatal(err)
	}

	app, err := NewDeltaApplier(base)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := NewDeltaReader(d1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Apply(dr); err != nil {
		t.Fatal(err)
	}
	// The continuation takes the applier's buffers over and keeps
	// recycling them day after day.
	day3 := churnSnapshot(day2, "2021-10-07", 12)
	d3, err := enc.Encode(day3)
	if err != nil {
		t.Fatal(err)
	}
	cont := app.Encoder()
	for _, c := range []struct {
		day  *Snapshot
		want []byte
	}{{day2, d2}, {day3, d3}} {
		got, err := cont.Encode(c.day)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: continuation encoder diverged from the original chain encoder", c.day.Date)
		}
	}
}

func TestDeltaReaderOps(t *testing.T) {
	base := goldenSnapshot()
	base.Normalize()
	next := churnSnapshot(base, "2021-10-05", 3)
	delta, err := EncodeDelta(base, next)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := NewDeltaReader(delta)
	if err != nil {
		t.Fatal(err)
	}
	if dr.BaseDate() != base.Date {
		t.Fatalf("BaseDate = %q, want %q", dr.BaseDate(), base.Date)
	}
	head, err := dr.Header(nil)
	if err != nil {
		t.Fatal(err)
	}
	if head.Date != next.Date || head.IXP != next.IXP || head.Routes != nil {
		t.Fatalf("Header() = %+v, want header-only day-N snapshot", head)
	}
	if !reflect.DeepEqual(head.Members, next.Members) {
		t.Fatal("Header() members differ from day N")
	}

	// The op stream must balance: base + adds - dels == next, and
	// copies + dels + changes must consume exactly the base.
	count := func() (copies, adds, dels, changes int) {
		err := dr.Ops(func(op *DeltaOp) error {
			switch op.Kind {
			case DeltaCopy:
				copies += op.N
			case DeltaAdd:
				adds++
				if _, err := op.Prefix(); err != nil {
					return err
				}
			case DeltaDel:
				dels++
			case DeltaChange:
				changes++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	copies, adds, dels, changes := count()
	if copies+dels+changes != len(base.Routes) {
		t.Fatalf("ops consume %d base routes, want %d", copies+dels+changes, len(base.Routes))
	}
	if copies+adds+changes != len(next.Routes) {
		t.Fatalf("ops produce %d next routes, want %d", copies+adds+changes, len(next.Routes))
	}
	// Re-runnable, like RouteBlock.Scan.
	c2, a2, d2, g2 := count()
	if c2 != copies || a2 != adds || d2 != dels || g2 != changes {
		t.Fatal("second Ops pass diverged")
	}
}

// bulkSnapshot builds an n-route snapshot with realistic attribute
// sharing (few next-hops/paths/community sets, many prefixes), big
// enough that per-day overheads do not dominate size comparisons.
func bulkSnapshot(n int) *Snapshot {
	s := &Snapshot{IXP: "BULK-IX", Date: "2021-10-04"}
	for asn := uint32(64500); asn < 64508; asn++ {
		s.Members = append(s.Members, Member{ASN: asn, Name: "m", IPv4: true})
	}
	for i := 0; i < n; i++ {
		peer := 64500 + uint32(i%8)
		s.Routes = append(s.Routes, bgp.Route{
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			NextHop:   netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 8)}),
			ASPath:    bgp.ASPath{peer, 3356, uint32(65000 + i%16)},
			Origin:    bgp.OriginIGP,
			LocalPref: 100,
			Communities: []bgp.Community{
				bgp.NewCommunity(uint16(peer%100), 100),
				bgp.NewCommunity(0, uint16(i%4)),
			},
		})
	}
	s.Normalize()
	return s
}

func TestDeltaIdenticalDays(t *testing.T) {
	base := bulkSnapshot(600)
	same := *base
	delta, err := EncodeDelta(base, &same)
	if err != nil {
		t.Fatal(err)
	}
	// An unchanged day collapses to one copy run and no extensions.
	full := appendBinarySnapshot(nil, base)
	if len(delta) >= len(full)/4 {
		t.Fatalf("identical-day delta is %d bytes, full snapshot %d — expected a fraction", len(delta), len(full))
	}
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&same, got) {
		t.Fatal("identical-day round trip diverged")
	}
}

func TestDeltaTruncated(t *testing.T) {
	base := goldenSnapshot()
	base.Normalize()
	next := churnSnapshot(base, "2021-10-05", 4)
	delta, err := EncodeDelta(base, next)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(delta); i++ {
		if _, err := NewDeltaReader(delta[:i]); err == nil {
			// A truncation that still parses must at least fail to
			// apply; it can never silently produce a snapshot.
			if _, err := ApplyDelta(base, delta[:i]); err == nil {
				t.Fatalf("truncation at %d applied cleanly", i)
			}
		}
	}
}

func TestDeltaRejectsUnsorted(t *testing.T) {
	base := goldenSnapshot()
	base.Normalize()
	if len(base.Routes) < 2 {
		t.Fatal("fixture too small")
	}
	shuffled := *base
	shuffled.Routes = append([]bgp.Route(nil), base.Routes...)
	shuffled.Routes[0], shuffled.Routes[len(shuffled.Routes)-1] =
		shuffled.Routes[len(shuffled.Routes)-1], shuffled.Routes[0]
	if _, err := NewDeltaEncoder(&shuffled); err == nil {
		t.Fatal("NewDeltaEncoder accepted unsorted routes")
	}
	if _, err := EncodeDelta(base, &shuffled); err == nil {
		t.Fatal("EncodeDelta accepted unsorted next")
	}

	// A refused Encode leaves the encoder as it was, though the walk
	// interned the day's new values before it reached the disorder at
	// the day's end: the next day encodes to a fresh encoder's bytes.
	bulk := bulkSnapshot(300)
	next := churnSnapshot(bulk, "2021-10-05", 1)
	bad := *next
	bad.Routes = slices.Clone(next.Routes)
	n := len(bad.Routes)
	bad.Routes[n-2], bad.Routes[n-1] = bad.Routes[n-1], bad.Routes[n-2]
	enc, err := NewDeltaEncoder(bulk)
	if err != nil {
		t.Fatal(err)
	}
	sizes := enc.tabs.sizes()
	if _, err := enc.Encode(&bad); err == nil {
		t.Fatal("Encode accepted a day whose last two routes are swapped")
	}
	if enc.tabs.sizes() != sizes || enc.Base() != bulk {
		t.Fatalf("a refused Encode moved the encoder: tables %v → %v", sizes, enc.tabs.sizes())
	}
	got, err := enc.Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := EncodeDelta(bulk, next); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the day after a refused Encode differs from a fresh encoder's (%v)", err)
	}
}

// TestEncodeFindsEveryDisorder: the order check folded into the merge
// walk refuses a day exactly when its routes are not Normalize-sorted,
// over random days that mix the base's routes, fresh ones (a longer
// prefix at a base address, another peer, addresses on either side of
// the base's) and duplicates, sorted, sorted but for one swap, or not
// at all.
func TestEncodeFindsEveryDisorder(t *testing.T) {
	pool := bulkSnapshot(10).Routes
	for i := range 10 {
		r := pool[i]
		r.Prefix = netip.PrefixFrom(r.Prefix.Addr(), 25)
		pool = append(pool, r)
		r = pool[i]
		r.ASPath = bgp.ASPath{64499, 3356}
		pool = append(pool, r)
		r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(9 + 2*(i%2)), 0, byte(i), 0}), 24)
		pool = append(pool, r)
	}
	less := func(a, b bgp.Route) int { return routeCompare(&a, &b) }
	draw := func(rng *rand.Rand) []bgp.Route {
		routes := make([]bgp.Route, rng.Intn(len(pool)/2))
		for i := range routes {
			routes[i] = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(3) > 0 {
			slices.SortStableFunc(routes, less)
			if len(routes) > 1 && rng.Intn(2) == 0 {
				k := rng.Intn(len(routes) - 1)
				routes[k], routes[k+1] = routes[k+1], routes[k]
			}
		}
		return routes
	}
	rng := rand.New(rand.NewSource(1))
	refused := 0
	for trial := range 5000 {
		base := &Snapshot{IXP: "BULK-IX", Date: "2021-10-04", Routes: draw(rng)}
		slices.SortStableFunc(base.Routes, less)
		next := &Snapshot{IXP: "BULK-IX", Date: "2021-10-05", Routes: draw(rng)}
		enc, err := NewDeltaEncoder(base)
		if err != nil {
			t.Fatal(err)
		}
		_, err = enc.Encode(next)
		if sorted := slices.IsSortedFunc(next.Routes, less); sorted != (err == nil) {
			t.Fatalf("trial %d: a day sorted=%v encoded with error %v", trial, sorted, err)
		}
		if err != nil {
			refused++
		}
	}
	t.Logf("%d of 5000 random days refused as out of order", refused)
}

// TestDeltaBitFlipIsRejected: a delta with any one bit flipped, wherever
// the bit is, is refused at open. Before deltas were sealed, 6 892 of
// the 21 328 flips of this delta applied without an error and gave a
// day that was not the one encoded.
func TestDeltaBitFlipIsRejected(t *testing.T) {
	base := bulkSnapshot(300)
	delta, err := EncodeDelta(base, churnSnapshot(base, "2021-10-05", 1))
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]byte, len(delta))
	for bit := range 8 * len(delta) {
		copy(flipped, delta)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := NewDeltaReader(flipped); err == nil {
			t.Fatalf("a delta with bit %d of %d flipped opened", bit, 8*len(delta))
		}
	}
	// A flip past the structure's fields is named as the seal's.
	copy(flipped, delta)
	flipped[len(flipped)-sha256.Size-1] ^= 1
	if _, err := NewDeltaReader(flipped); !errors.Is(err, errDeltaCorrupt) || !strings.Contains(err.Error(), "seal") {
		t.Errorf("a flipped op byte opened with %v, want the seal named", err)
	}
}

// TestDeltaV1IsRefused: a delta of the first format, which carried its
// day's SnapshotDigest where the seal now is, is refused at open with
// the way to rebuild the dataset, whatever follows its version.
func TestDeltaV1IsRefused(t *testing.T) {
	base := goldenSnapshot()
	base.Normalize()
	delta, err := EncodeDelta(base, churnSnapshot(base, "2021-10-05", 4))
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Clone(delta)
	v1[len(deltaMagic)] = 1
	_, err = NewDeltaReader(v1)
	if !errors.Is(err, errDeltaV1) || !strings.Contains(err.Error(), "regenerate the dataset with ixpgen or re-collect it") {
		t.Fatalf("a version-1 delta opened with %v", err)
	}
}

func FuzzSnapshotDelta(f *testing.F) {
	f.Add([]byte("seed"), []byte("pair"))
	f.Add(appendBinarySnapshot(nil, goldenSnapshot()), []byte{})
	f.Add([]byte{}, appendBinarySnapshot(nil, sampleSnapshot()))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		base := snapshotFromFuzzBytes(a)
		next := snapshotFromFuzzBytes(b)
		base.Normalize()
		next.Normalize()
		delta, err := EncodeDelta(base, next)
		if err != nil {
			t.Fatalf("EncodeDelta: %v", err)
		}
		if want := newReferenceDeltaEncoder(t, base).encode(t, next); !bytes.Equal(delta, want) {
			t.Fatal("delta differs from the reference (two-pass) encoder's")
		}
		got, err := ApplyDelta(base, delta)
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		if !reflect.DeepEqual(next, got) {
			t.Fatalf("delta round trip mismatch:\n want %+v\n got  %+v", next, got)
		}
		if SnapshotDigest(got) != SnapshotDigest(next) {
			t.Fatal("digest mismatch after round trip")
		}

		// One bit flipped, where the inputs' hash says, is refused.
		h := fnv.New64a()
		h.Write(a)
		h.Write(b)
		bit := h.Sum64() % uint64(8*len(delta))
		flipped := bytes.Clone(delta)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := NewDeltaReader(flipped); err == nil {
			t.Fatalf("a delta with bit %d flipped opened", bit)
		}

		// The header built against the base is the plain decode, and
		// owns no byte of the delta.
		buf := bytes.Clone(delta)
		dr, err := NewDeltaReader(buf)
		if err != nil {
			t.Fatal(err)
		}
		built, err := dr.Header(base)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := dr.Header(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(built, plain) {
			t.Fatalf("header built against the base differs from the plain decode:\n built %+v\n plain %+v", built, plain)
		}
		for i := range buf {
			buf[i] = 0xa5
		}
		want := *next
		want.Routes = nil
		if !reflect.DeepEqual(built, &want) {
			t.Fatalf("header changed with the delta's bytes:\n got  %+v\n want %+v", built, &want)
		}
	})
}

// TestHeaderAgainstBase: a day's header built against its base equals
// the header decoded with no base, shares the base's member slice
// exactly when the two lists are equal, takes the base's name string
// for every member equal to a base member when the list is in ASN
// order, as a stored one is, and the base's IXP string.
func TestHeaderAgainstBase(t *testing.T) {
	base := &Snapshot{IXP: "DE-CIX", Date: "2021-10-04", Members: []Member{
		{ASN: 64500, Name: "Alpha", IPv4: true},
		{ASN: 64510, Name: "Beta", IPv4: true, IPv6: true},
		{ASN: 64520, Name: "Gamma", IPv6: true},
		{ASN: 64530, Name: "Delta", IPv4: true},
	}}
	edit := func(fn func(ms []Member) []Member) []Member {
		return fn(slices.Clone(base.Members))
	}
	cases := []struct {
		name    string
		members []Member
	}{
		{"unchanged", edit(func(ms []Member) []Member { return ms })},
		{"joiner", edit(func(ms []Member) []Member {
			return slices.Insert(ms, 2, Member{ASN: 64515, Name: "Joiner", IPv4: true})
		})},
		{"leaver", edit(func(ms []Member) []Member { return slices.Delete(ms, 1, 2) })},
		{"renamed", edit(func(ms []Member) []Member { ms[2].Name = "Gamma Two"; return ms })},
		{"ipv6 flipped", edit(func(ms []Member) []Member { ms[0].IPv6 = true; return ms })},
		{"valley-truncated", edit(func(ms []Member) []Member { return ms[:2] })},
		{"reordered", edit(func(ms []Member) []Member { slices.Reverse(ms); return ms })},
		{"emptied", []Member{}},
		{"unrelated", []Member{{ASN: 7, Name: "Seven", IPv4: true}, {ASN: 8, Name: "Eight", IPv6: true}}},
		{"none", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			next := &Snapshot{IXP: "DE-CIX", Date: "2021-10-05", Members: tc.members}
			delta, err := EncodeDelta(base, next)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := NewDeltaReader(delta)
			if err != nil {
				t.Fatal(err)
			}
			built, err := dr.Header(base)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := dr.Header(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(built, plain) || !reflect.DeepEqual(built.Members, tc.members) {
				t.Fatalf("built %+v, plain %+v, want members %+v", built, plain, tc.members)
			}
			equal := reflect.DeepEqual(tc.members, base.Members)
			if shared := len(built.Members) > 0 && &built.Members[0] == &base.Members[0]; shared != equal {
				t.Errorf("member slice shared = %v, lists equal = %v", shared, equal)
			}
			inOrder := slices.IsSortedFunc(built.Members, func(a, b Member) int { return cmp.Compare(a.ASN, b.ASN) })
			for _, m := range built.Members {
				for _, b := range base.Members {
					if inOrder && m.ASN == b.ASN && m.Name == b.Name && unsafe.StringData(m.Name) != unsafe.StringData(b.Name) {
						t.Errorf("AS%d: name %q not shared with the base's", m.ASN, m.Name)
					}
				}
			}
			if unsafe.StringData(built.IXP) != unsafe.StringData(base.IXP) {
				t.Error("IXP string not shared with the base's")
			}
		})
	}
}
