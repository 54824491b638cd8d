package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
)

// bigFourSpec is the stored dataset analyze, both serve workloads and
// reload share: the paper's four largest IXPs as day-over-day evolved
// series (3 % daily churn, one collection valley), one .bin base plus
// a .delta chain per IXP.
func bigFourSpec(sz size) datasetSpec {
	spec := datasetSpec{
		profiles: ixpgen.BigFour(),
		scale:    0.004,
		days:     28,
		churn:    0.03,
		valleys:  []int{9},
	}
	if sz == sizeToy {
		spec.scale, spec.days, spec.valleys = 0.002, 5, []int{3}
	}
	return spec
}

// analyzeWorkload is the paper's batch job: load the stored dataset
// into a fresh lab and run every experiment. Nothing crosses a socket;
// the codec read side, the index builders' production path and the
// experiment engine do all the work.
type analyzeWorkload struct {
	spec datasetSpec
	ds   *dataset
	// names is every experiment, in the order this run's seed submits
	// them to the lab's worker pool. (The lab's own seed, which shapes
	// the workloads visibility generates for itself, is shapeSeed:
	// seeding it moved allocs_per_op by 2 % between seeds.)
	names []string
	want  [sha256.Size]byte // digest of the reference output

	outs [][]byte // the op's output, handed to verify
	// outputBytes is the size of one op's concatenated output.
	outputBytes int
}

func newAnalyzeWorkload(sz size) *analyzeWorkload {
	return &analyzeWorkload{spec: bigFourSpec(sz)}
}

// newLab is the lab every dataset consumer in this benchmark builds:
// the shell constructor the daemon's dir mode uses.
func newLab(spec datasetSpec) *report.Lab {
	return report.NewLabShell(spec.profiles, shapeSeed, spec.scale, 0)
}

func outputDigest(outs [][]byte) (sum [sha256.Size]byte, n int) {
	hash := sha256.New()
	for _, o := range outs {
		hash.Write(o)
		n += len(o)
	}
	hash.Sum(sum[:0])
	return sum, n
}

func (w *analyzeWorkload) setup(h *harness) (err error) {
	w.names = append([]string(nil), report.ExperimentNames...)
	rand.New(rand.NewSource(h.seed)).Shuffle(len(w.names), func(i, j int) {
		w.names[i], w.names[j] = w.names[j], w.names[i]
	})
	if w.ds, err = buildDataset(h, w.spec); err != nil {
		return err
	}
	// The reference: the same experiments over fully materialized
	// routes, the path that shares no index builder with the op.
	ref := newLab(w.spec)
	ref.Materialize = true
	// One worker: whatever the reference leaves behind in the analysis
	// package's process-wide index cache is then the same on every run.
	ref.Parallel = 1
	if err := ref.LoadSnapshotDir(w.ds.dir); err != nil {
		return err
	}
	outs, err := ref.RunMany(w.names)
	if err != nil {
		return err
	}
	w.want, w.outputBytes = outputDigest(outs)
	flushIndexCache(w.spec.profiles[0])
	h.tick()
	return nil
}

// flushIndexCache pushes the reference's materialized snapshots out of
// the analysis package's process-wide index cache (a bounded FIFO keyed
// by snapshot pointer) by indexing empty snapshots through it: several
// times its capacity, so the slices behind it are reallocated and no
// stale key keeps a snapshot alive. The op itself never uses that
// cache — its snapshots carry their indexes — so without this the
// harness's own reference would be most of analyze's live heap, and a
// different amount of it from run to run.
func flushIndexCache(p ixpgen.Profile) {
	for i := 0; i < 256; i++ {
		analysis.IndexFor(&collector.Snapshot{IXP: p.IXP}, p.Scheme)
	}
}

func (w *analyzeWorkload) prepare(*harness, int) error { return nil }

func (w *analyzeWorkload) op(h *harness, _ int) error {
	lab := newLab(w.spec)
	if err := h.stage("report.load", func() error { return lab.LoadSnapshotDir(w.ds.dir) }); err != nil {
		return err
	}
	return h.stage("report.expall", func() (err error) {
		w.outs, err = lab.RunMany(w.names)
		return err
	})
}

func (w *analyzeWorkload) verify(*harness, int) error {
	got, _ := outputDigest(w.outs)
	w.outs = nil
	if got != w.want {
		return fmt.Errorf("experiment output digest %x differs from the materialized reference %x", got[:6], w.want[:6])
	}
	return nil
}

func (w *analyzeWorkload) finish(*harness) error { return nil }
func (w *analyzeWorkload) release()              { w.outs = nil }

func (w *analyzeWorkload) teardown() {
	w.ds.remove()
	w.ds, w.outs = nil, nil
}

func (w *analyzeWorkload) probe(h *harness, m metricSet) error {
	m.set("report.output_bytes", float64(w.outputBytes), "bytes")
	if err := probeExperiments(h, m, w.spec, w.ds.dir); err != nil {
		return err
	}
	return probeDataset(h, m, w.ds.dir, w.spec.profiles[0])
}
