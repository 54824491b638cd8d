package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ixplight/internal/collector"
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

// BenchmarkReloadOneDay is the daemon's reload unit of work on the same
// dataset: one new day lands on one of the four chains and a successor
// lab loads the directory from its predecessor — one listing, one delta
// open, one Index.Advance. Taking the day out again (a re-fold of that
// IXP from its base) is the untimed half of each iteration. Read it
// against BenchmarkLoadSnapshotDir: the ratio is what loading from a
// predecessor buys.
func BenchmarkReloadOneDay(b *testing.B) {
	const (
		scale = 0.004
		days  = 28
	)
	profiles := ixpgen.BigFour()
	dir, stage := b.TempDir(), b.TempDir()
	series := writeDeltaChain(b, profiles, dir, b.TempDir(),
		ixpgen.TemporalOptions{Seed: 42, Scale: scale, Days: days + 1, ValleyDays: []int{9}})
	tip := profiles[0].IXP + "-" + series[profiles[0].IXP][days].Date + collector.DeltaExt
	for _, p := range profiles {
		name := p.IXP + "-" + series[p.IXP][days].Date + collector.DeltaExt
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(stage, name)); err != nil {
			b.Fatal(err)
		}
	}
	load := func(prev *Lab) *Lab {
		files, err := collector.ListDir(dir, true)
		if err != nil {
			b.Fatal(err)
		}
		lab := NewLabShell(profiles, 42, scale, 0)
		if rep := lab.Load(dir, files, prev); len(rep.Skipped) > 0 {
			b.Fatal(&rep.Skipped[0])
		}
		return lab
	}
	lab := load(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Rename(filepath.Join(stage, tip), filepath.Join(dir, tip)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		lab = load(lab)
		b.StopTimer()
		if n := len(lab.Series[profiles[0].IXP]); n != days+1 {
			b.Fatalf("loaded %d days, want %d", n, days+1)
		}
		if err := os.Rename(filepath.Join(dir, tip), filepath.Join(stage, tip)); err != nil {
			b.Fatal(err)
		}
		lab = load(lab)
		b.StartTimer()
	}
}

// BenchmarkVisibility is one `visibility` experiment over the big four
// at the batch job's scale: per profile one ixpgen.Generate, one
// Populate and one export walk, the four profiles on the lab's pool.
// Run it with -cpu 2 (the benchmark host's GOMAXPROCS); its allocs/op
// are what TestVisibilityAllocs puts a ceiling on.
func BenchmarkVisibility(b *testing.B) {
	lab, err := GenerateLab(ixpgen.BigFour(), 42, 0.004, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := lab.Run(io.Discard, "visibility"); err != nil {
			b.Fatal(err)
		}
	}
}
