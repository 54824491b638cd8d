package analysis

import (
	"runtime"
	"sync"
	"testing"

	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// seriesBench is the 84-day AMS-IX-scale evolved series both series
// benchmarks share: every day as a full binary file (the rebuild
// input) and as a delta chain (the advance input). Built once — the
// evolution itself is setup, not the thing measured.
var seriesBench struct {
	once   sync.Once
	err    error
	days   [][]byte // full CodecBinary encoding per day
	day0   []byte
	deltas [][]byte
	scheme *dictionary.Scheme
}

func seriesWorkload(b testing.TB) ([][]byte, []byte, [][]byte, *dictionary.Scheme) {
	b.Helper()
	sb := &seriesBench
	sb.once.Do(func() {
		p := ixpgen.ProfileByName("AMS-IX")
		if p == nil {
			sb.err = errTest("unknown profile AMS-IX")
			return
		}
		sb.scheme = p.Scheme
		o := ixpgen.TemporalOptions{Days: 84, Seed: 42, Scale: 0.02, ValleyDays: []int{9, 41}}
		var enc *collector.DeltaEncoder
		sb.err = ixpgen.EvolveSeries(*p, o, 0.03, func(day int, s *collector.Snapshot) error {
			bin := binBytes(b, s)
			sb.days = append(sb.days, bin)
			if day == 0 {
				sb.day0 = bin
				var err error
				enc, err = collector.NewDeltaEncoder(s)
				return err
			}
			buf, err := enc.Encode(s)
			if err != nil {
				return err
			}
			sb.deltas = append(sb.deltas, buf)
			return nil
		})
	})
	if sb.err != nil {
		b.Fatal(sb.err)
	}
	return sb.days, sb.day0, sb.deltas, sb.scheme
}

type errTest string

func (e errTest) Error() string { return string(e) }

// BenchmarkSeriesAdvance analyses the 84-day series incrementally:
// day 0 is indexed off its columns once, every later day advances the
// previous day's counts-only index by its delta, and the tip is
// materialized — what LoadSnapshotDir does with a delta chain. B/day is
// the heap cost of one more loaded day, day 0's build and the tip's
// materialization included.
func BenchmarkSeriesAdvance(b *testing.B) {
	_, day0, deltas, scheme := seriesWorkload(b)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := collector.NewSnapshotReaderBytes(day0)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := IndexSeriesFromReader(sr, scheme)
		if err != nil {
			b.Fatal(err)
		}
		total := ix.Counts(false).Routes
		for _, buf := range deltas {
			dr, err := collector.NewDeltaReader(buf)
			if err != nil {
				b.Fatal(err)
			}
			if ix, err = ix.Advance(dr); err != nil {
				b.Fatal(err)
			}
			total += ix.Counts(false).Routes
		}
		if err := ix.Materialize(); err != nil {
			b.Fatal(err)
		}
		if total == 0 {
			b.Fatal("empty series")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	days := float64(len(deltas) + 1)
	b.ReportMetric(days, "days/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/days, "B/day")
}

// BenchmarkSeriesFullRebuild is the same 84-day analysis without
// Advance: every day builds its index from scratch off its own binary
// columns. The SeriesAdvance / SeriesFullRebuild ratio is the
// incremental win.
func BenchmarkSeriesFullRebuild(b *testing.B) {
	days, _, _, scheme := seriesWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, bin := range days {
			sr, err := collector.NewSnapshotReaderBytes(bin)
			if err != nil {
				b.Fatal(err)
			}
			ix, err := IndexFromReader(sr, scheme)
			if err != nil {
				b.Fatal(err)
			}
			total += ix.Counts(false).Routes
		}
		if total == 0 {
			b.Fatal("empty series")
		}
	}
	b.ReportMetric(float64(len(days)), "days/op")
}
