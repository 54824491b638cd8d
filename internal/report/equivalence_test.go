package report

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ixplight/internal/ixpgen"
)

// expAllGolden holds the sha256 of every experiment's output at seed
// 42, scale 0.004, big four — recorded once from the tree before the
// index became the only execution path, running every analysis through
// the direct-classify reference (now analysis/oracle_test.go) on
// materialized routes at one worker, over the ten-day series `ixpgen`
// writes (valley on day 4) loaded from disk, where
// table3/table4/sanitation read the stored series. Every digest but
// visibility's and sanitation's was re-recorded when withdrawals began
// to re-use their prefixes; table3/table4 again when their windows and
// weekly representatives began to be picked by date, so that the
// removed valley day no longer pulls day 7 into Table 3 and day 8 into
// Table 4. A generated lab is a loaded dataset too, and
// TestStabilityIsOneWorld holds it to the one `ixpgen` writes.
var expAllGolden = map[string]string{
	"table1":     "458e0ba3f131a121f7ed30714c1da7674c1a6f607f1dcb7144bb7f2498cdcd86",
	"fig1":       "d898bd3890810b6ba33ed94b59d93151c3a6adc5515d5e199063ae1fd5159225",
	"fig2":       "53f440068332b62e38a9817cc1657620d73682924440acaeff623a17c79eec3f",
	"fig3":       "726bc40ca493db6e55757249af2c22a71551312982e0be58b1df9fbb953a90f5",
	"fig4a":      "831e63954b17438c4b66a27754ebca3f7a140dea7d720752699abfb5004fb571",
	"fig4b":      "4137a323a273cc2b57165791b195b56658f53e87c9c0d3f16192997ebfbcc38c",
	"fig4c":      "1a0256e814327a42b0bda4ee4f19c61dfd04ff1e1c3814030c2c79d260388009",
	"table2":     "2a02bce201486b225846833c10900722ef185e5884ca2d5973f300edee4d4146",
	"sec53":      "5e362e5e55a2719ad333d08ca12631071f07528356316d607b9c49c7687e0825",
	"fig5":       "dd9de09170d12d7a2be37726ff02442ddb5da2c2829e0969e572781edf2c5682",
	"fig6":       "1c50083fca95b8e0e459da90f02cd78a6b2e339e09c1cab2df748663980c3489",
	"fig7":       "5df53fdcee8463b05ab1b78bd5355e886189cf3230b6a0cb4d6cd93e9400e72e",
	"table3":     "6fd44d1099caeb558dace4e8b96ea3f7c838ca0306e772cf0721477e7fe18790",
	"table4":     "4408d27139a71b87431b7d6cb2563f9ac04b5ffdd2c894eb55a57f9c4d6464aa",
	"sanitation": "2d829e52741877170bb651f8f9f2bb59f5b6d5043d34529b410e207e564fcf59",
	"extlarge":   "8c1550b976ed7d82fca9916e0acf904a87896e4ca9571ed487a3d6a402029c93",
	"sec56":      "fa01e5e0eb092228623c2a9e862646526b38267d28b97a4adeb619376c3a03b6",
	"visibility": "64fe2300db4c58f8acd1ddf4c47546ae268f041a4c7dc855b43649d2e0a519f2",
	"intersect":  "19f5a5643acc32cca6a0b5ef6a7347ed273c45b8e3ae7aa59fc6738c5df36622",
	"categories": "9f5d92634554982aecb8557448153859f37820bb11e57a32e28218d8f8587d6d",
	"summary":    "1430738e67bb7d6dc48c3711f994e23fc79f9661c43c3e91100e20ab63a22e95",
}

// checkExpAllGolden names every experiment whose output moved.
func checkExpAllGolden(t *testing.T, outs [][]byte) {
	t.Helper()
	if len(outs) != len(ExperimentNames) {
		t.Fatalf("%d outputs, want %d", len(outs), len(ExperimentNames))
	}
	for i, name := range ExperimentNames {
		if got := fmt.Sprintf("%x", sha256.Sum256(outs[i])); got != expAllGolden[name] {
			t.Errorf("%s: output sha256 %s…, golden %s…", name, got[:12], expAllGolden[name][:12])
		}
	}
}

// TestExpAllParallelMatchesSequential answers "does -exp all still
// reproduce" in one place: the full battery, sequential (Parallel 1)
// and fanned out, over the same dataset loaded four ways — a delta
// chain advanced incrementally, the chain materialized through the
// applier, full binary files indexed off their columns, and the same
// files decoded into routes — must hit the golden
// digests experiment by experiment, so a bent experiment is named. Every
// load of one directory, the Materialize reference's included, names
// its data with one Lab.Digest.
// `make check` runs this under -race, which also exercises the shared
// indexes and the pools concurrently.
func TestExpAllParallelMatchesSequential(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()
	workerCounts := []int{1, 4}

	chainDir, binDir := t.TempDir(), t.TempDir()
	digests := map[string][sha256.Size]byte{}
	writeDeltaChain(t, profiles, chainDir, binDir, ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 10, ValleyDays: []int{4}})
	for _, src := range []struct {
		name, dir   string
		materialize bool
	}{
		{"delta", chainDir, false},
		{"delta-materialize", chainDir, true},
		{"binary", binDir, false},
		{"binary-materialize", binDir, true},
	} {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/parallel=%d", src.name, workers), func(t *testing.T) {
				lab := NewLabShell(profiles, seed, scale, workers)
				lab.Materialize = src.materialize
				if err := lab.LoadSnapshotDir(src.dir); err != nil {
					t.Fatal(err)
				}
				if d, ok := digests[src.dir]; !ok {
					digests[src.dir] = lab.Digest
				} else if d != lab.Digest {
					t.Errorf("digest %x, another load of the directory %x", lab.Digest[:8], d[:8])
				}
				outs, err := lab.RunMany(ExperimentNames)
				if err != nil {
					t.Fatal(err)
				}
				checkExpAllGolden(t, outs)
			})
		}
	}
}

// TestVisibilityParallelMatchesSequential pins the visibility fan-out:
// the four per-profile route-server simulations land in ordered slots,
// so the experiment's output is byte-identical whether they run one
// after the other or on more workers than profiles. Cheap enough for
// -race -count=10, which the full battery above is not.
func TestVisibilityParallelMatchesSequential(t *testing.T) {
	lab := bigFourLab(t)
	defer func(workers int) { lab.Parallel = workers }(lab.Parallel)
	run := func(workers int) []byte {
		lab.Parallel = workers
		var buf bytes.Buffer
		if err := lab.Run(&buf, "visibility"); err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	if n := bytes.Count(seq, []byte("invisible\n")); n != len(ixpgen.BigFour()) {
		t.Fatalf("sequential output has %d IXP rows, want %d:\n%s", n, len(ixpgen.BigFour()), seq)
	}
	for _, workers := range []int{2, 8} {
		if par := run(workers); !bytes.Equal(par, seq) {
			t.Errorf("parallel=%d output differs from sequential:\n%s\nvs\n%s", workers, par, seq)
		}
	}
}

// TestRunPoolErrorSemantics pins the pool's sequential-compatible
// error behaviour: the lowest failing index wins regardless of worker
// count, and RunMany keeps exactly the outputs preceding it.
func TestRunPoolErrorSemantics(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		idx, err := runPool(10, workers, func(i int) error {
			ran.Add(1)
			if failAt[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if idx != 3 || err == nil || err.Error() != "task 3 failed" {
			t.Errorf("workers=%d: got (%d, %v), want lowest failure (3, task 3 failed)", workers, idx, err)
		}
		if workers == 1 && ran.Load() != 4 {
			t.Errorf("sequential pool ran %d tasks, want 4 (stop at first error)", ran.Load())
		}
	}

	if idx, err := runPool(0, 4, func(int) error { return errors.New("never") }); idx != 0 || err != nil {
		t.Errorf("empty pool: got (%d, %v)", idx, err)
	}
}

// TestRunPoolReusesHelpers pins what keeps a long-running process's
// goroutine population constant: the helpers of one call are idle again
// by the time it returns, so call after call — nested calls included —
// starts no goroutine beyond the first round's. Every round holds all
// its tasks at a barrier, so each needs the same five helpers: two for
// the outer call, one for each of the three nested ones.
func TestRunPoolReusesHelpers(t *testing.T) {
	round := func() {
		var arrived sync.WaitGroup
		arrived.Add(6)
		runPool(3, 3, func(int) error {
			runPool(2, 2, func(int) error {
				arrived.Done()
				arrived.Wait()
				return nil
			})
			return nil
		})
	}
	idle := func() int {
		idleHelpers.Lock()
		defer idleHelpers.Unlock()
		return len(idleHelpers.list)
	}
	round()
	before := idle()
	if before < 5 {
		t.Fatalf("%d helpers idle after a round that ran five", before)
	}
	for i := 0; i < 200; i++ {
		round()
	}
	if after := idle(); after != before {
		t.Errorf("200 more rounds started %d more helpers, want none", after-before)
	}
}

// TestRunManyTruncatesAtError checks the documented failure contract:
// outputs before the failing experiment survive, the rest are
// dropped.
func TestRunManyTruncatesAtError(t *testing.T) {
	l := testLab(t)
	outs, err := l.RunMany([]string{"fig1", "definitely-not-an-experiment", "fig2"})
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1 (only the experiment before the failure)", len(outs))
	}
	if len(outs[0]) == 0 {
		t.Error("fig1 output empty")
	}
}
