package telemetry

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNilRegistryIsNoOp: the entire API must be callable through a nil
// registry — nil instruments, nil spans, empty exposition — because
// that is the default state of every instrumented subsystem.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("ixplight_nil_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter must stay 0")
	}
	cv := r.CounterVec("ixplight_nil_vec_total", "", "l")
	cv.With("x").Inc()
	g := r.Gauge("ixplight_nil_gauge", "")
	g.Set(3)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Error("nil gauge must stay 0")
	}
	h := r.Histogram("ixplight_nil_seconds", "", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must stay empty")
	}
	hv := r.HistogramVec("ixplight_nil_vec_seconds", "", nil, "l")
	hv.With("x").Observe(1)
	sp := r.StartSpan("nil")
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Duration() != 0 {
		t.Error("nil span duration must be 0")
	}
	r.SetSpanSink(&RecordingSink{})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry exposition = %q, want empty", buf.String())
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

// TestZeroTimeObserveSinceIgnored pins the disabled-clock contract the
// instrument helpers rely on: m.now() returns the zero time when
// telemetry is off, and ObserveSince must drop it.
func TestZeroTimeObserveSinceIgnored(t *testing.T) {
	r := New()
	h := r.Histogram("ixplight_zero_seconds", "", nil)
	h.ObserveSince(time.Time{})
	if h.Count() != 0 {
		t.Errorf("count = %d after zero-time observe, want 0", h.Count())
	}
}

func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ixplight_lg_requests_total", "ixplight_lg_requests_total"},
		{"IXPLight LG++Demo", "ixplight_lg_demo"},
		{"9lives", "_9lives"},
		{"a--b..c", "a_b_c"},
		{"", "_"},
		{"___", "_"},
	}
	for _, c := range cases {
		if got := SanitizeName(c.in); got != c.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := New()
	c := r.Counter("ixplight_mono_total", "")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Errorf("value = %d, want 5", c.Value())
	}
}

func TestVecChildrenAreDistinctAndIdempotent(t *testing.T) {
	r := New()
	v := r.CounterVec("ixplight_vec_total", "", "call")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Inc()
	if v.With("a").Value() != 2 || v.With("b").Value() != 1 {
		t.Errorf("children = a:%d b:%d, want a:2 b:1", v.With("a").Value(), v.With("b").Value())
	}
	// Re-registering the same family returns the same instruments.
	if r.CounterVec("ixplight_vec_total", "", "call").With("a") != v.With("a") {
		t.Error("re-registration must return the same child")
	}
}

func TestReRegistrationKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("ixplight_shape_total", "")
	defer func() {
		if recover() == nil {
			t.Error("want panic on kind mismatch")
		}
	}()
	r.Gauge("ixplight_shape_total", "")
}

func TestHistogramBucketMath(t *testing.T) {
	r := New()
	h := r.Histogram("ixplight_buckets_seconds", "", []float64{0.25, 1, 5})
	for _, v := range []float64{0.125, 0.25, 0.5, 2, 8} {
		h.Observe(v)
	}
	s := h.snapshot()
	// 0.125 and 0.25 land in le=0.25 (le is inclusive), 0.5 in le=1,
	// 2 in le=5, 8 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, n := range want {
		if s.counts[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, s.counts[i], n)
		}
	}
	if s.count != 5 {
		t.Errorf("count = %d, want 5", s.count)
	}
	if s.sum != 10.875 {
		t.Errorf("sum = %v, want 10.875", s.sum)
	}
}

func TestSpanSinkRecords(t *testing.T) {
	r := New()
	if sp := r.StartSpan("before.sink"); sp != nil {
		t.Error("StartSpan without a sink must return nil")
	}
	sink := &RecordingSink{}
	r.SetSpanSink(sink)
	sp := r.StartSpan("test.op")
	sp.SetAttr("ixp", "DE-CIX")
	sp.End()
	spans := sink.Named("test.op")
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.Duration() < 0 {
		t.Errorf("duration = %v", got.Duration())
	}
	if len(got.Attrs) != 1 || got.Attrs[0] != (Attr{Key: "ixp", Value: "DE-CIX"}) {
		t.Errorf("attrs = %v", got.Attrs)
	}
	r.SetSpanSink(nil)
	if sp := r.StartSpan("after.removal"); sp != nil {
		t.Error("StartSpan after sink removal must return nil")
	}
}

// TestMetricsGolden pins the Prometheus text exposition byte-for-byte:
// name sanitization, label escaping, and the cumulative
// _bucket/_sum/_count histogram triplets. Regenerate with
//
//	go test ./internal/telemetry -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	r := New()
	// A name that needs sanitizing, and a HELP with a backslash.
	r.Counter("IXPLight Golden++Total", `crawls finished (path C:\data)`).Add(42)
	// Label values exercising every escape: backslash, quote, newline.
	v := r.CounterVec("ixplight_golden_labeled_total", "labeled counter.", "cause", "detail")
	v.With("http_5xx", `say "again"`).Inc()
	v.With("transport", "a\\b\nc").Add(2)
	r.Gauge("ixplight_golden_in_flight", "a gauge.").Set(3)
	h := r.Histogram("ixplight_golden_seconds", "a histogram.", []float64{0.25, 1, 5})
	for _, x := range []float64{0.125, 0.5, 2, 8} {
		h.Observe(x)
	}
	hv := r.HistogramVec("ixplight_golden_by_call_seconds", "a labeled histogram.", []float64{1}, "call")
	hv.With("status").Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestEmptyFamiliesStillExposeHeaders: a fresh process's scrape must
// show the full metric catalog, samples or not.
func TestEmptyFamiliesStillExposeHeaders(t *testing.T) {
	r := New()
	r.CounterVec("ixplight_catalog_total", "registered but never incremented.", "cause")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HELP ixplight_catalog_total") ||
		!strings.Contains(out, "# TYPE ixplight_catalog_total counter") {
		t.Errorf("catalog headers missing:\n%s", out)
	}
}

// TestSnapshot: counters and gauges by exposition name, labels
// rendered into the key; histograms stay out of it.
func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("ixplight_snap_total", "").Add(7)
	r.CounterVec("ixplight_snap_vec_total", "", "l").With("x").Add(3)
	r.Gauge("ixplight_snap_gauge", "").Set(-2)
	r.Histogram("ixplight_snap_seconds", "", []float64{1}).Observe(0.5)
	want := map[string]int64{"ixplight_snap_total": 7, `ixplight_snap_vec_total{l="x"}`: 3, "ixplight_snap_gauge": -2}
	if got := r.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("snapshot = %v, want %v", got, want)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from
// GOMAXPROCS goroutines with scrapes racing the writers — the test the
// -race run leans on. Every observation must be counted exactly once.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("ixplight_hammer_seconds", "", []float64{0.5, 2})
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scraper: exercises snapshot() against live writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				_ = r.WritePrometheus(&buf)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(1.0)
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	total := uint64(workers * perWorker)
	if h.Count() != total {
		t.Errorf("count = %d, want %d", h.Count(), total)
	}
	// Every observation is exactly 1.0, so the CAS-summed total is exact.
	if h.Sum() != float64(total) {
		t.Errorf("sum = %v, want %v", h.Sum(), float64(total))
	}
	s := h.snapshot()
	if s.counts[1] != total { // 1.0 lands in le=2
		t.Errorf("le=2 bucket = %d, want %d", s.counts[1], total)
	}
}
