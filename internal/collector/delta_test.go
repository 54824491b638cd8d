package collector

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
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
		if app.Digest() != SnapshotDigest(series[d]) {
			t.Fatalf("day %d: chain digest mismatch", d)
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

// TestDeltaApplierEncoderContinuation pins the cmd/collect workflow:
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
	cont, err := app.Encoder().Encode(day2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cont, d2) {
		t.Fatal("continuation encoder diverged from the original chain encoder")
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
