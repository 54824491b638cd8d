package report

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/ixpgen"
)

// TestExpAllParallelMatchesSequential pins the engine's central
// guarantee: the full `-exp all` battery over the seeded big-four
// workload produces byte-identical output on the parallel indexed
// path (analysis parallelism > 1, experiment fan-out) and on the
// legacy sequential direct-classify path (-parallel 1). `make check`
// runs this under -race, so it also exercises the index and pool
// concurrently.
func TestExpAllParallelMatchesSequential(t *testing.T) {
	// Scale keeps the two full `-exp all` batteries (with table4's
	// 84-day series per IXP) affordable under -race.
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()
	old := analysis.Parallelism()
	t.Cleanup(func() { analysis.SetParallelism(old) })

	analysis.SetParallelism(1)
	seqLab, err := NewLabParallel(profiles, seed, scale, 1)
	if err != nil {
		t.Fatalf("sequential lab: %v", err)
	}
	seqOuts, err := seqLab.RunMany(ExperimentNames)
	if err != nil {
		t.Fatalf("sequential RunMany: %v", err)
	}

	analysis.SetParallelism(4)
	parLab, err := NewLabParallel(profiles, seed, scale, 4)
	if err != nil {
		t.Fatalf("parallel lab: %v", err)
	}
	parOuts, err := parLab.RunMany(ExperimentNames)
	if err != nil {
		t.Fatalf("parallel RunMany: %v", err)
	}

	if len(seqOuts) != len(ExperimentNames) || len(parOuts) != len(ExperimentNames) {
		t.Fatalf("outputs: sequential %d, parallel %d, want %d",
			len(seqOuts), len(parOuts), len(ExperimentNames))
	}
	for i, name := range ExperimentNames {
		if len(seqOuts[i]) == 0 {
			t.Errorf("%s: empty sequential output", name)
		}
		if !bytes.Equal(seqOuts[i], parOuts[i]) {
			t.Errorf("%s: parallel output differs from sequential (%d vs %d bytes)",
				name, len(parOuts[i]), len(seqOuts[i]))
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
