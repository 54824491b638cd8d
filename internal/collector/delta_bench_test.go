package collector

import (
	"fmt"
	"runtime"
	"testing"
)

// benchDeltaPair is a bulk day and its churned successor — roughly
// 10% of routes withdrawn/re-tagged/flapped, the fixture scale the
// delta codec is built for.
func benchDeltaPair(n int) (base, next *Snapshot) {
	base = bulkSnapshot(n)
	next = churnSnapshot(base, "2021-10-05", 1)
	return base, next
}

// BenchmarkSnapshotDeltaEncode measures the encoder two ways. oneshot
// is EncodeDelta on a ~30 % churn pair: a new encoder (every attribute
// of the base keyed once) plus one day. chained is what a daily
// collection pays: one Encode on a standing encoder whose day differs
// from the last by 1 % withdrawn and 1 % re-announced.
func BenchmarkSnapshotDeltaEncode(b *testing.B) {
	b.Run("oneshot", func(b *testing.B) {
		base, next := benchDeltaPair(50000)
		b.ReportAllocs()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = EncodeDelta(base, next)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.SetBytes(int64(len(buf)))
		b.ReportMetric(float64(len(buf))/float64(len(next.Routes)), "bytes/route")
		ReportPerRoute(b, &before, len(next.Routes))
	})
	b.Run("chained", func(b *testing.B) {
		base, days := alternatingDays(50000, 500)
		enc, err := NewDeltaEncoder(base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enc.Encode(days[i%2]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ReportPerRoute(b, &before, len(days[0].Routes))
	})
}

func BenchmarkSnapshotDeltaApply(b *testing.B) {
	base, next := benchDeltaPair(50000)
	delta, err := EncodeDelta(base, next)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(delta)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ApplyDelta(base, delta)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Routes) != len(next.Routes) {
			b.Fatal("route count diverged")
		}
	}
}

// BenchmarkSnapshotDeltaChainSize encodes a two-week churned chain
// and reports its storage footprint next to the full binary files it
// replaces — the chain/full ratio is the codec's reason to exist.
func BenchmarkSnapshotDeltaChainSize(b *testing.B) {
	const days = 14
	series := []*Snapshot{bulkSnapshot(20000)}
	fullBytes := len(appendBinarySnapshot(nil, series[0]))
	for d := 1; d < days; d++ {
		next := churnSnapshot(series[d-1], fmt.Sprintf("2021-10-%02d", 4+d), int64(d))
		fullBytes += len(appendBinarySnapshot(nil, next))
		series = append(series, next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var chainBytes int
	for i := 0; i < b.N; i++ {
		enc, err := NewDeltaEncoder(series[0])
		if err != nil {
			b.Fatal(err)
		}
		chainBytes = len(appendBinarySnapshot(nil, series[0]))
		for d := 1; d < days; d++ {
			buf, err := enc.Encode(series[d])
			if err != nil {
				b.Fatal(err)
			}
			chainBytes += len(buf)
		}
	}
	b.ReportMetric(float64(chainBytes)/float64(fullBytes), "chain/full-bytes")
	b.ReportMetric(float64(chainBytes)/float64(days), "bytes/day")
}
