package main

import (
	"sort"
	"time"
)

// Drift calibration.
//
// On a small shared VM the same op's wall time wanders by tens of
// percent between runs minutes apart, and its CPU time wanders with
// it: the host is contended, and no amount of in-run repetition
// averages that out. A fixed amount of work sampled right before and
// after each op moves in step with the drift, so dividing the op by it
// cancels most of it.
//
// One calibration sample is three fixed kernels run back to back and
// timed separately:
//
//   - memlat: LCG-indexed read-modify-writes over a buffer far larger
//     than a core's own caches. It reports how contended the memory
//     system is, and it leaves the caches in the same state — full of
//     its own lines — whatever ran before the sample.
//   - alu: a dependent multiply-add chain that touches no memory. It
//     stays flat under any contention, so when it does not, the CPU
//     itself was taken away (the hypervisor descheduled the VM).
//   - work: probes of a 128 Ki-entry hash map (a few MB of buckets)
//     followed by a comparison sort of 16 Ki words — what the program
//     under test spends its time on, in miniature.
//
// The scale is taken from work alone; memlat and alu are controls,
// reported and never used for scaling. That is a measured choice
// (README, "Calibration"): over two sets of ten runs per workload,
// scaling by memlat or by memlat + alu left a quartile spread of
// 9–18 % on some workload; the work kernel alone held every workload
// at 1.4–5.7 %, and no weighted mix of the candidate kernels tried did
// better over both sets.

const (
	// memlatWords sizes the memlat buffer: 32 MiB of uint64, many times
	// a core's own caches.
	memlatWords = 32 << 20 / 8
	// The fixed work of one sample.
	memlatIters = 1_000_000
	aluIters    = 4_000_000
	workEntries = 1 << 17
	workProbes  = 60_000
	workSortLen = 1 << 14
	// calNominal is what the work kernel is scaled to: a calibrated
	// millisecond is a wall millisecond on a machine whose work kernel
	// takes exactly this long.
	calNominal = 5 * time.Millisecond
)

// calSample is one calibration sample: the three kernels' wall times.
type calSample struct{ mem, alu, work time.Duration }

// calibrator owns the kernels' fixed state, allocated and touched once,
// outside every timed window.
type calibrator struct {
	buf   []uint64          // memlat's buffer
	table map[uint64]uint64 // work's hash map
	keys  []uint64          // work's sort scratch
	lcg   uint64
	// The iteration counts are the constants above, except at toy size,
	// where the smoke test only needs the code paths.
	memIters, aluIters, probes int
	sink                       uint64 // kernel results land here so the compiler cannot elide the loops
}

func newCalibrator(sz size) *calibrator {
	div := 1
	if sz == sizeToy {
		div = 16
	}
	c := &calibrator{
		buf:      make([]uint64, memlatWords/div),
		table:    make(map[uint64]uint64, workEntries/div),
		keys:     make([]uint64, workSortLen/div),
		lcg:      0x9e3779b97f4a7c15,
		memIters: memlatIters / div,
		aluIters: aluIters / div,
		probes:   workProbes / div,
	}
	for i := range c.buf {
		c.buf[i] = uint64(i) // fault every page in now, not inside a sample
	}
	x := uint64(1)
	for i := 0; i < workEntries/div; i++ {
		x = x*lcgMul + lcgInc
		c.table[x>>40] = x
	}
	return c
}

// release drops the kernels' state so it does not count as live heap.
func (c *calibrator) release() { c.buf, c.table, c.keys = nil, nil, nil }

const (
	lcgMul = 6364136223846793005
	lcgInc = 1442695040888963407
)

// memlatKernel runs iters LCG-indexed read-modify-writes over buf and
// returns the advanced LCG state.
func memlatKernel(buf []uint64, x uint64, iters int) uint64 {
	mask := uint64(len(buf) - 1)
	for i := 0; i < iters; i++ {
		x = x*lcgMul + lcgInc
		buf[(x>>20)&mask] += x
	}
	return x
}

// aluKernel runs iters dependent multiply-adds touching no memory.
func aluKernel(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x = x*lcgMul + lcgInc
	}
	return x
}

// workKernel probes table with probes LCG-drawn keys, then fills keys
// from the LCG and sorts it. It allocates nothing but sort.Slice's
// swapper.
func workKernel(table map[uint64]uint64, keys []uint64, x uint64, probes int) uint64 {
	var sum uint64
	for i := 0; i < probes; i++ {
		x = x*lcgMul + lcgInc
		sum += table[x>>40]
	}
	for i := range keys {
		x = x*lcgMul + lcgInc
		keys[i] = x
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return sum + keys[0]
}

// sample takes one calibration sample.
func (c *calibrator) sample() calSample {
	t0 := time.Now()
	c.lcg = memlatKernel(c.buf, c.lcg, c.memIters)
	t1 := time.Now()
	x := aluKernel(c.lcg, c.aluIters)
	t2 := time.Now()
	y := workKernel(c.table, c.keys, c.lcg, c.probes)
	t3 := time.Now()
	c.sink += c.lcg + x + y
	return calSample{mem: t1.Sub(t0), alu: t2.Sub(t1), work: t3.Sub(t2)}
}

// calScale is the factor that turns a raw duration measured between
// two adjacent samples into a calibrated one.
func calScale(before, after calSample) float64 {
	mean := (before.work + after.work) / 2
	if mean <= 0 {
		return 1
	}
	return float64(calNominal) / float64(mean)
}

// --- small order statistics shared by the harness -------------------------

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks. vals need not be sorted and is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func iqr(vals []float64) float64 { return quantile(vals, 0.75) - quantile(vals, 0.25) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
