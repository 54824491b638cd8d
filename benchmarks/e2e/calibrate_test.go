package main

import (
	"math"
	"testing"
	"time"
)

// The kernels are the unit every calibrated number is expressed in:
// changing their work silently rescales every metric in every archive.
func TestKernelWorkIsPinned(t *testing.T) {
	if memlatWords != 4<<20 || memlatIters != 1_000_000 || aluIters != 4_000_000 {
		t.Fatalf("control kernel constants moved: words=%d memlat=%d alu=%d", memlatWords, memlatIters, aluIters)
	}
	if workEntries != 1<<17 || workProbes != 60_000 || workSortLen != 1<<14 {
		t.Fatalf("work kernel constants moved: entries=%d probes=%d sort=%d", workEntries, workProbes, workSortLen)
	}
	if calNominal != 5*time.Millisecond {
		t.Fatalf("calNominal = %v, want 5ms", calNominal)
	}
	if memlatWords&(memlatWords-1) != 0 {
		t.Fatal("memlatWords must be a power of two (the index is masked)")
	}
}

// Same state in, same state out: the kernels do a fixed amount of
// work whose result is observable, so the compiler cannot drop it.
func TestKernelsAreDeterministicAndLive(t *testing.T) {
	buf1, buf2 := make([]uint64, 1<<10), make([]uint64, 1<<10)
	a, b := memlatKernel(buf1, 42, 5000), memlatKernel(buf2, 42, 5000)
	if a != b || a == 42 {
		t.Fatalf("memlatKernel: %d vs %d", a, b)
	}
	touched := 0
	for i := range buf1 {
		if buf1[i] != buf2[i] {
			t.Fatalf("buffers diverge at %d", i)
		}
		if buf1[i] != 0 {
			touched++
		}
	}
	if touched < len(buf1)/2 {
		t.Fatalf("memlatKernel touched only %d of %d words", touched, len(buf1))
	}
	if x, y := aluKernel(7, 1000), aluKernel(7, 1000); x != y || x == 7 {
		t.Fatalf("aluKernel: %d vs %d", x, y)
	}
	if aluKernel(7, 1000) == aluKernel(7, 1001) {
		t.Fatal("aluKernel ignores its iteration count")
	}
	c1, c2 := newCalibrator(sizeToy), newCalibrator(sizeToy)
	w1 := workKernel(c1.table, c1.keys, 42, 1000)
	if w2 := workKernel(c2.table, c2.keys, 42, 1000); w1 != w2 {
		t.Fatalf("workKernel: %d vs %d", w1, w2)
	}
	if len(c1.table) < workEntries/16*9/10 {
		t.Fatalf("work table holds %d entries, want about %d", len(c1.table), workEntries/16)
	}
	for i := 1; i < len(c1.keys); i++ {
		if c1.keys[i-1] > c1.keys[i] {
			t.Fatalf("workKernel left keys unsorted at %d", i)
		}
	}
	if workKernel(c1.table, c1.keys, 42, 1000) == workKernel(c1.table, c1.keys, 43, 1000) {
		t.Fatal("workKernel ignores its LCG state")
	}
}

// An op measured on a machine that is uniformly k× slower, between
// calibration samples that are k× slower too, calibrates back to the
// value the nominal machine would have measured. The control kernels
// never enter the scale.
func TestScalingUndoesASyntheticSlowdown(t *testing.T) {
	const opNominal = 37 * time.Millisecond
	for _, k := range []float64{0.5, 1, 1.3, 2.75} {
		slow := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
		around := calSample{mem: 40 * time.Millisecond, alu: 9 * time.Millisecond, work: slow(calNominal)}
		s := sample{wall: slow(opNominal), cpu: slow(opNominal)}
		s.scale = calScale(around, around)
		if got := s.calWallMs(); math.Abs(got-ms(opNominal)) > 1e-6 {
			t.Errorf("k=%v: calibrated wall %.6f ms, want %.6f", k, got, ms(opNominal))
		}
		if got := s.calCPUMs(); math.Abs(got-ms(opNominal)) > 1e-6 {
			t.Errorf("k=%v: calibrated cpu %.6f ms, want %.6f", k, got, ms(opNominal))
		}
	}
	// Drift inside the op window: the scale is taken at the mean of
	// the two adjacent samples.
	lo, hi := calSample{work: 4 * time.Millisecond}, calSample{work: 6 * time.Millisecond}
	if got, want := calScale(lo, hi), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("calScale(4ms,6ms) = %v, want %v", got, want)
	}
	if got := calScale(calSample{}, calSample{}); got != 1 {
		t.Errorf("calScale of empty samples = %v, want the neutral 1", got)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	// The driver's spread: Python's statistics.quantiles(n=4), exclusive.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// Self time subtracts the union of the children, not their sum: two
// workers' overlapping round trips must not be counted twice.
func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "collect", Start: 0, End: 100, Parent: -1},
		{Name: "rt", Start: 10, End: 40, Parent: 0},
		{Name: "rt", Start: 30, End: 60, Parent: 0},  // overlaps the first
		{Name: "rt", Start: 70, End: 80, Parent: 0},  // disjoint
		{Name: "rt", Start: 95, End: 120, Parent: 0}, // runs past its parent
		{Name: "inner", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	// covered: [10,60] ∪ [70,80] ∪ [95,100] = 50 + 10 + 5
	if got := self[0]; got != 35 {
		t.Errorf("collect self = %d, want 35", got)
	}
	if got := self[1]; got != 22 {
		t.Errorf("rt self = %d, want 22", got)
	}
	if got := self[2]; got != 30 {
		t.Errorf("childless span self = %d, want its duration 30", got)
	}
}
