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
// materialized routes at one worker. "synthetic" is the generated lab,
// "dataset" a ten-day evolved series (churn 0.05, valley on day 4)
// loaded from disk, where table3/table4/sanitation read the stored
// series. visibility simulates its own route servers and is the same
// in both.
var expAllGolden = map[string]map[string]string{
	"synthetic": {
		"table1":     "fa0bb2e1034edf9a7e6f2ca7ab43801d90475cfcd3a1655eeb4957c086095ca4",
		"fig1":       "d055af6278044d668e535f131a93684009b0c90ad4f6fb6d66d9306f82c572f5",
		"fig2":       "69389377b9ec192516f1364dc126c5b5793b3fc468c9edebb16134d118d8621d",
		"fig3":       "d94e30f205fafe7a45b48dc7a953e0ce4e0768d7dfeb2ef276a9ecf3636660c5",
		"fig4a":      "8cfc154b42bfeccb904865ff466148d560e10147871c1f5830746d82cf8c6927",
		"fig4b":      "c77dde43e9167496ea5144002bcf38df59157635065f0156d61c8b594259336e",
		"fig4c":      "a5da82040bba29c81683587c09c96f598e82127970ceef6431bf7fecdb8de756",
		"table2":     "0313ce57f1494dc774bbe7aa2109ca474f6473b40e1d2b0f03e19e60a1690bcb",
		"sec53":      "ce74ee7bccdfd8a095750fdd536da49aac6b58e74e9dd0dd93bad4a200c588d2",
		"fig5":       "d3fdd591ca60840a285cf2ca77e639d2305e20c892b2c56a049e2ca89b3dc14d",
		"fig6":       "c44821f49f09d4df104d02e7cbaf4a8879bc434a0327abdfcba0188543971358",
		"fig7":       "76ba495cc5fdd14898859fd814559fede9b3ba3afe4d6ae8ae653cf1830e409e",
		"table3":     "f1ed6cdfb1f455e191cab9aecb82e862231a2c3d22edd0ca537a531350859947",
		"table4":     "e237e1abd1f3bba71ba461c1780baf3698d7a262a7f77c0db4cefceaed579a0a",
		"sanitation": "55c52b82ffe13c63072d1769b5362ca967a4fc8cc08b28cafeea6ad15dfba4f9",
		"extlarge":   "5a271f04a94f4e03af0d9cacca252ec7588cd3bb4c1ae19442d6867c363660cb",
		"sec56":      "6094a5bc62017c0e6fee080ad7cbd768960c318246cf1f6985c59c380923c329",
		"visibility": "64fe2300db4c58f8acd1ddf4c47546ae268f041a4c7dc855b43649d2e0a519f2",
		"intersect":  "46b4ab971afcfa517118f148d184ecf87c6d2d9b33280ea85977fd296a40b9c0",
		"categories": "0a760ca6a57d213dd29f5e49d6f52dd3bc8b40c4a0139f7b90c606098a29c6fc",
		"summary":    "ada905717044f9ec390764aa11e769d477b4663d4226d3d9c5ce8b380f3022ad",
	},
	"dataset": {
		"table1":     "3de3f6d444f30a1b42fc3b19f98333b8432215c866849c586772478d36afe4be",
		"fig1":       "aea25aafe11b37c43a46f4b4b029e3eec3cd4538c6eeebd3dcd0df65f607581d",
		"fig2":       "f9ae41beaa5db542ea15c9cdaeb6c329b0f7b503c80d08f2462db1cba1e682c3",
		"fig3":       "a7335eee8b4431bca6b0c6f87e8b6579c4ca0afb7655779525288ade4f7c7b7c",
		"fig4a":      "4a4e7119d870d6bbb6cd4b08d706965e65fe71055944cc554639007b45554811",
		"fig4b":      "677607691c7d4842935610bcbeed4e7aaef4dd3d53702d82b10da1452a6f0872",
		"fig4c":      "d920c9a6bd641dc6ade002e65b4f1b3362889050e5a96f74fe6e45d62d40df73",
		"table2":     "104460f5bc113da360e047a55c9942f9a4de6090bb4dbdcd11f9c14d5758a954",
		"sec53":      "19a4c04b3c38171058371f77ccf58bbbe57ef58831c819678817cb80652e8c05",
		"fig5":       "82ac4a8436f577e88b3714537f2fd0a38632bbfe3adcd4da4e9d3df7149732a8",
		"fig6":       "babc657c73cfd3c405c93fcaf1fbe0528c0905fe399112efbb4c16183b1d8ccc",
		"fig7":       "33c15ce7a910aa916e03ebfcc0da25ade1d3144a1741d8d6dbb049a11cbef218",
		"table3":     "645f34a9812ac5f1989f8f1e0984a83e3310949cd7478d36a2fd5b42692204e4",
		"table4":     "261fa7036760f7abde1e3fe620c280f9ed9f0de02c790387d6dcfe0869a3809e",
		"sanitation": "2d829e52741877170bb651f8f9f2bb59f5b6d5043d34529b410e207e564fcf59",
		"extlarge":   "f1482f1301fa6efcff61be6fb1f532b01b043654e9b933f0f8d280ad03417069",
		"sec56":      "c9cbefb303a0b3aba929940e6641574540e2169e63bf0a177c1ec9e488f357d2",
		"visibility": "64fe2300db4c58f8acd1ddf4c47546ae268f041a4c7dc855b43649d2e0a519f2",
		"intersect":  "66441f74e291aab9409e869665a89cc8c77b420b8c1fee87f7597aa13165860b",
		"categories": "7f78e9feaf3242017809ca7644424b3b57f98d8da9c6518192fdd5042a0f4b35",
		"summary":    "5fd193d5ffd55baa67bb0f299e30a84eea880bf63e01b6dbda48874ac9734d13",
	},
}

// checkExpAllGolden names every experiment whose output moved.
func checkExpAllGolden(t *testing.T, kind string, outs [][]byte) {
	t.Helper()
	if len(outs) != len(ExperimentNames) {
		t.Fatalf("%d outputs, want %d", len(outs), len(ExperimentNames))
	}
	for i, name := range ExperimentNames {
		if got := fmt.Sprintf("%x", sha256.Sum256(outs[i])); got != expAllGolden[kind][name] {
			t.Errorf("%s: output sha256 %s…, golden %s…", name, got[:12], expAllGolden[kind][name][:12])
		}
	}
}

// TestExpAllParallelMatchesSequential answers "does -exp all still
// reproduce" in one place: the full battery, sequential (Parallel 1)
// and fanned out, over the synthetic lab and over the same dataset
// loaded four ways — a delta chain advanced incrementally, the chain
// materialized through the applier, full binary files indexed off their
// columns, and the same files decoded into routes — must hit the golden
// digests experiment by experiment, so a bent experiment is named.
// `make check` runs this under -race, which also exercises the shared
// indexes and the pools concurrently.
func TestExpAllParallelMatchesSequential(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()
	workerCounts := []int{1, 4}

	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("synthetic/parallel=%d", workers), func(t *testing.T) {
			lab, err := NewLabParallel(profiles, seed, scale, workers)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := lab.RunMany(ExperimentNames)
			if err != nil {
				t.Fatal(err)
			}
			checkExpAllGolden(t, "synthetic", outs)
		})
	}

	chainDir, binDir := t.TempDir(), t.TempDir()
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
				outs, err := lab.RunMany(ExperimentNames)
				if err != nil {
					t.Fatal(err)
				}
				checkExpAllGolden(t, "dataset", outs)
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
	run := func(workers int) []byte {
		lab := NewLabShell(ixpgen.BigFour(), 42, 0.004, workers)
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
