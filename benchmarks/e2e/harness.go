package main

import (
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// workload is one benchmark scenario. The harness owns timing,
// calibration and accounting; a workload owns what an op is and what
// a correct outcome looks like.
type workload interface {
	// setup builds everything the first op needs (datasets, servers,
	// primed caches). It calls h.tick() between phases and wraps calls
	// into the program's layers in h.stage(). It must be repeatable
	// after teardown: set-up time is the median of several set-ups.
	setup(h *harness) error
	// prepare runs untimed before op i (e.g. mutate the route server
	// so today differs from yesterday).
	prepare(h *harness, i int) error
	// op is the timed operation. An error fails the op.
	op(h *harness, i int) error
	// verify runs untimed after op i and checks its outputs. An error
	// fails the op.
	verify(h *harness, i int) error
	// finish runs after the last op, before teardown: whole-run checks
	// (compute counters, probe statuses). An error fails the run.
	finish(h *harness) error
	// probe fills per-layer metrics that are not derived from op spans
	// (micro-measurements of single layers on the workload's own
	// dataset). Traced runs only.
	probe(h *harness, m metricSet) error
	// release drops the harness-side staging data (reference outputs,
	// verification chains) so live heap counts only what the program
	// itself keeps resident. The workload stays set up.
	release()
	// teardown stops every server and goroutine the set-up started and
	// removes its files.
	teardown()
}

// size scales a workload. The benchmark always runs sizeFull; the
// smoke test runs sizeToy so every code path is exercised in seconds.
type size int

const (
	sizeFull size = iota
	sizeToy
)

// sample is one timed op.
type sample struct {
	wall, cpu     time.Duration // raw
	before, after calSample
	scale         float64
	allocBytes    uint64
	mallocs       uint64
	failed        bool
	opID          int32
}

func (s *sample) calWallMs() float64 { return ms(s.wall) * s.scale }
func (s *sample) calCPUMs() float64  { return ms(s.cpu) * s.scale }

// harness carries the per-run measurement state the workloads see.
type harness struct {
	cal     *calibrator
	tr      *tracer // nil in an untraced (end-to-end) run
	seed    int64
	size    size
	workdir string
	log     func(format string, args ...any)

	// set-up accounting (reset per set-up repetition)
	inSetup      bool
	setupPaused  time.Duration
	setupSamples []calSample
	setupStages  map[string]time.Duration
	genDays      int // snapshot days ixpgen generated in this set-up

	// the open op span while a traced op runs
	opSpan int32
}

// tick takes one calibration sample inside set-up. The sample's own
// time is excluded from set-up time.
func (h *harness) tick() {
	if !h.inSetup {
		return
	}
	t0 := time.Now()
	h.setupSamples = append(h.setupSamples, h.cal.sample())
	h.setupPaused += time.Since(t0)
}

// offClock runs fn — file writes of the harness's own dataset builder
// — outside the set-up clock, the way calibration samples are. What the
// 100-odd small files of a dataset cost the file system differs from
// process to process (20–140 ms of a 0.6 s set-up on the ext4 this was
// sized on), is nothing the program can change and nothing a CPU kernel
// can calibrate; left in, it moved setup_s by up to ±8 % from one
// process to the next. It is reported on its own as
// harness.setup_fs_ms.
func (h *harness) offClock(fn func() error) error {
	if !h.inSetup {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	h.setupPaused += d
	h.setupStages["harness.fs_write"] += d
	return err
}

// stage runs fn as a named call into one of the program's layers. It
// always accumulates set-up stage time (two clock reads); in a traced
// op it also records a span with the heap allocation delta.
func (h *harness) stage(name string, fn func() error) error {
	if h.inSetup {
		t0 := time.Now()
		err := fn()
		h.setupStages[name] += time.Since(t0)
		return err
	}
	if !h.tr.enabled() {
		return fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := h.tr.start(name, h.opSpan)
	prev := h.tr.cur.Swap(id)
	err := fn()
	h.tr.cur.Store(prev)
	runtime.ReadMemStats(&m1)
	h.tr.endStage(id, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
	return err
}

// setupResult is one timed set-up repetition.
type setupResult struct {
	raw     time.Duration
	scale   float64
	stages  map[string]time.Duration
	genDays int
}

func (r *setupResult) calSeconds() float64 { return r.raw.Seconds() * r.scale }

// stageCalMs returns a set-up stage's calibrated milliseconds.
func (r *setupResult) stageCalMs(name string) float64 { return ms(r.stages[name]) * r.scale }

// runSetup times one set-up of w.
func (h *harness) runSetup(w workload) (setupResult, error) {
	runtime.GC()
	h.inSetup = true
	h.setupPaused = 0
	h.setupSamples = h.setupSamples[:0]
	h.setupStages = make(map[string]time.Duration)
	h.genDays = 0
	t0 := time.Now()
	h.tick()
	err := w.setup(h)
	h.tick()
	raw := time.Since(t0) - h.setupPaused
	h.inSetup = false
	if err != nil {
		return setupResult{}, err
	}
	vals := make([]float64, len(h.setupSamples))
	for i, s := range h.setupSamples {
		vals[i] = float64(s.work)
	}
	scale := 1.0
	if m := median(vals); m > 0 {
		scale = float64(calNominal) / m
	}
	return setupResult{raw: raw, scale: scale, stages: h.setupStages, genDays: h.genDays}, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOp runs op i of w once: untimed prepare, GC, calibration sample,
// the timed op, calibration sample, untimed verify. A warm-up is the
// same sequence with the sample thrown away.
func (h *harness) runOp(w workload, i int) sample {
	var s sample
	fail := func(stage string, err error) {
		s.failed = true
		h.log("op %d: %s: %v", i, stage, err)
	}
	if err := w.prepare(h, i); err != nil {
		fail("prepare", err)
		return s
	}
	// Every op starts from the same heap state.
	runtime.GC()
	s.opID = int32(i)
	s.before = h.cal.sample()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.opSpan = h.tr.beginOp(s.opID)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := w.op(h, i)
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - cpu0
	h.tr.endOp(h.opSpan)
	h.opSpan = -1
	runtime.ReadMemStats(&m1)
	s.after = h.cal.sample()
	s.scale = calScale(s.before, s.after)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		fail("op", err)
	} else if err := w.verify(h, i); err != nil {
		fail("verify", err)
	}
	return s
}

// minTimedOps is the floor on timed ops per end-to-end run: p90 then
// has at least ten samples beyond it.
const minTimedOps = 100

// warmupOps run before the first timed op.
const warmupOps = 3

// runOps runs timed ops starting at index first until the budget has
// passed and at least minOps ran, or until hardCap whatever happened.
func (h *harness) runOps(w workload, first, minOps int, budget, hardCap time.Duration) []sample {
	start := time.Now()
	var out []sample
	for i := first; ; i++ {
		el := time.Since(start)
		if (el >= budget && len(out) >= minOps) || el >= hardCap {
			break
		}
		out = append(out, h.runOp(w, i))
	}
	return out
}

// --- metrics ---------------------------------------------------------------

// metric is one named, united value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// opStats are the statistics over one set of samples.
type opStats struct {
	n                  int
	calP50, calP90     float64 // ms
	opsPerS            float64
	cpuCalPerOp        float64 // ms
	allocMB, allocs    float64
	rawP50, rawCPU     float64 // ms
	calMsP50, calMsIQR float64 // the work kernel, which the scale is taken from
	memMsP50, aluMsP50 float64 // the two control kernels
	failed             int
}

func summarize(samples []sample) opStats {
	var st opStats
	var cal, raw, cals, mems, alus []float64
	var sumCal, sumCPUCal, sumCPU, sumBytes, sumAllocs float64
	for i := range samples {
		s := &samples[i]
		if s.failed {
			st.failed++
		}
		if s.wall == 0 {
			continue // failed before the timed window opened
		}
		cals = append(cals, ms(s.before.work), ms(s.after.work))
		mems = append(mems, ms(s.before.mem), ms(s.after.mem))
		alus = append(alus, ms(s.before.alu), ms(s.after.alu))
		cal = append(cal, s.calWallMs())
		raw = append(raw, ms(s.wall))
		sumCal += s.calWallMs()
		sumCPUCal += s.calCPUMs()
		sumCPU += ms(s.cpu)
		sumBytes += float64(s.allocBytes)
		sumAllocs += float64(s.mallocs)
	}
	st.n = len(cal)
	if st.n == 0 {
		return st
	}
	n := float64(st.n)
	st.calP50, st.calP90 = quantile(cal, 0.5), quantile(cal, 0.9)
	st.opsPerS = n / (sumCal / 1000)
	st.cpuCalPerOp = sumCPUCal / n
	st.allocMB = sumBytes / n / 1e6
	st.allocs = sumAllocs / n
	st.rawP50 = median(raw)
	st.rawCPU = sumCPU / n
	st.calMsP50, st.calMsIQR = median(cals), iqr(cals)
	st.memMsP50, st.aluMsP50 = median(mems), median(alus)
	return st
}

// liveHeapMB forces the heap down to what is still referenced and
// reports it. The caller has released its own staging data first.
// Finalizers and pools need a cycle each to let go, so it collects
// until a cycle frees nothing more.
func liveHeapMB() float64 {
	var m runtime.MemStats
	prev := uint64(math.MaxUint64)
	for i := 0; i < 6; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= prev {
			break
		}
		prev = m.HeapAlloc
	}
	return float64(min(prev, m.HeapAlloc)) / 1e6
}

// mkWorkdir creates a fresh scratch directory under the run's workdir.
func (h *harness) mkWorkdir(name string) (string, error) {
	if err := os.MkdirAll(h.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(h.workdir, name+"-")
}
