package report

import (
	"fmt"
	"runtime"
	"testing"

	"ixplight/internal/ixpgen"
)

// BenchmarkLoadSnapshotDir loads the big four as one .bin base plus a
// 27-day .delta chain each — the batch job's and the daemon's reload
// unit of work. parallel=1 is the sequential loop; parallel=N (N =
// GOMAXPROCS) folds the four chains concurrently, one pool task per
// IXP. Their ratio is what the per-IXP fold buys on this host.
func BenchmarkLoadSnapshotDir(b *testing.B) {
	const (
		scale = 0.004
		days  = 28
	)
	profiles := ixpgen.BigFour()
	dir := b.TempDir()
	writeDeltaChain(b, profiles, dir, b.TempDir(),
		ixpgen.TemporalOptions{Seed: 42, Scale: scale, Days: days, ValleyDays: []int{9}})

	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lab := NewLabShell(profiles, 42, scale, workers)
				if err := lab.LoadSnapshotDir(dir); err != nil {
					b.Fatal(err)
				}
				for _, p := range profiles {
					if len(lab.Series[p.IXP]) != days {
						b.Fatalf("%s: loaded %d days, want %d", p.IXP, len(lab.Series[p.IXP]), days)
					}
				}
			}
			b.ReportMetric(float64(len(profiles)*days), "days/op")
		})
	}
}
