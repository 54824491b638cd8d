package analysis

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
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

// TestAdvanceMatchesFullRebuild pins the tentpole equivalence: a
// series index advanced delta-by-delta answers every accessor exactly
// like a from-scratch NewIndex of the materialized day — across route
// churn, weekly member swaps (the non-member/culprit flips), and a
// collection valley with its next-day recovery.
func TestAdvanceMatchesFullRebuild(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 16, Seed: 42, Scale: 0.02, ValleyDays: []int{11}}
	days, day0, deltas, scheme := evolvedChain(t, "AMS-IX", o, 0.04)

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexesAgree(t, "day0", ix, NewIndex(days[0], scheme))

	for d := 1; d < len(days); d++ {
		dr, err := collector.NewDeltaReader(deltas[d-1])
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		next, err := ix.Advance(dr)
		if err != nil {
			t.Fatalf("day %d advance: %v", d, err)
		}
		checkIndexesAgree(t, fmt.Sprintf("day%d", d), next, NewIndex(days[d], scheme))
		ix = next
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
	sr, err := collector.NewSnapshotReaderBytes(binBytes(t, s0), "edge.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexesAgree(t, "edge-day0", ix, NewIndex(series[0], scheme))
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
		checkIndexesAgree(t, fmt.Sprintf("edge-day%d", d), ix, NewIndex(series[d], scheme))
	}
}

func TestAdvanceErrors(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 3, Seed: 9, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "LINX", o, 0.05)

	// A plain materialized index has no series state to advance.
	dr0, err := collector.NewDeltaReader(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(days[0], scheme).Advance(dr0); err == nil {
		t.Error("Advance on a non-series index succeeded")
	}

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
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

	// After advancing, the superseded day refuses further advances —
	// the chain state has moved on.
	next, err := ix.Advance(dr0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Advance(dr0); err == nil {
		t.Error("Advance on a superseded day succeeded")
	}
	_ = next
}

// TestAdvanceSnapshotChain exercises the report-loader entry point:
// header-only snapshots advancing through attached series indexes.
func TestAdvanceSnapshotChain(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 4, Seed: 5, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "LINX", o, 0.05)

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	cur := ix.Snapshot()
	AttachIndex(cur, ix)
	for d := 1; d < len(days); d++ {
		dr, err := collector.NewDeltaReader(deltas[d-1])
		if err != nil {
			t.Fatal(err)
		}
		cur, err = AdvanceSnapshot(cur, scheme, dr)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		if cur.Date != days[d].Date {
			t.Fatalf("day %d: date %q, want %q", d, cur.Date, days[d].Date)
		}
		for _, v6 := range []bool{false, true} {
			got := CountSnapshot(cur, v6)
			want := NewIndex(days[d], scheme).Counts(v6)
			if got != want {
				t.Fatalf("day %d v6=%v: counts %+v, want %+v", d, v6, got, want)
			}
		}
	}

	// A snapshot with no attached index cannot ride the chain.
	dr, err := collector.NewDeltaReader(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AdvanceSnapshot(days[0], scheme, dr); err == nil {
		t.Error("AdvanceSnapshot without an attached series index succeeded")
	}
}

// TestClassIsSchemeClassify pins Index.Class as a pure function of the
// scheme on every builder: values present in the snapshot, values
// absent from it and 0xFFFFFFFF all answer scheme.Classify — there is
// no per-index memo whose coverage could differ between builders.
func TestClassIsSchemeClassify(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 3, Seed: 11, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "DE-CIX", o, 0.05)

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
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
// N+1 is being derived, day N (and every earlier day) answers point
// lookups from other goroutines with what it answered before. Run
// under -race.
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
		usage    []CommunityUsage
		activity []ASActivity
	}
	read := func(ix *Index) answers {
		var a answers
		for _, c := range comms {
			a.usage = append(a.usage, ix.CommunityUsage(c, false))
		}
		for _, p := range peers {
			a.activity = append(a.activity, ix.ASActivity(p, false))
		}
		return a
	}

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
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
		chain = append(chain, next)
		want = append(want, read(next))
	}
}

// TestAdvanceBytesPerDay pins what one more chain day costs in heap
// bytes, next to the allocation-count pin on the column build. At the
// seed every Advance copied the chain's whole standard-community memo
// (~780 kB a day on this series); what is cloned per day now is three
// small aggregate maps. The ceiling is a third of the seed's figure.
func TestAdvanceBytesPerDay(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	_, day0, deltas, scheme := seriesWorkload(t)
	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, dr := range readers {
		if ix, err = ix.Advance(dr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDay := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(readers))
	t.Logf("%.0f B allocated per Advance over %d days", perDay, len(readers))
	const ceiling = 250_000
	if perDay > ceiling {
		t.Errorf("Advance allocates %.0f B a day, ceiling %d (seed: ~780 kB, the per-day memo copy)", perDay, ceiling)
	}
}
