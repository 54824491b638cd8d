package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Harness-side tracing. The traced run wraps the same calls the
// untraced run makes in spans recorded from the benchmark's own files:
// timed calls into public functions (harness.stage), an http.Handler
// middleware around the servers and an http.RoundTripper around the
// clients' transports. The program's own telemetry stays nil in both
// runs. Spans live in memory and are written out, if asked, at exit.

// span is one recorded interval. Parent is an index into the tracer's
// span slice (-1 for a root); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	// Allocs/Bytes are process-wide heap allocation deltas over the
	// span; only stage spans (sequential, one at a time) carry them.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
	// N counts what the span moved (response bytes for round trips).
	N int64 `json:"n,omitempty"`
	// Stage marks a span opened by harness.stage: a row of the stage table.
	Stage bool `json:"stage,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer is the disabled tracer: every
// method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cur is the innermost open stage span: spans started on other
	// goroutines (server handlers, client round trips) hang off it.
	cur atomic.Int32
	op  atomic.Int32
	// on gates recording, so one process can run an untraced and a
	// traced phase through the same installed HTTP wrappers and report
	// the overhead between them.
	on atomic.Bool
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.cur.Store(-1)
	t.op.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int32) int32 {
	if !t.enabled() {
		return -1
	}
	s := span{Name: name, Start: t.now(), Parent: parent, Op: t.op.Load()}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// startChild opens a span under the innermost open stage.
func (t *tracer) startChild(name string) int32 {
	if !t.enabled() {
		return -1
	}
	return t.start(name, t.cur.Load())
}

func (t *tracer) end(id int32, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// beginOp opens the root span of timed op number op; until endOp every
// recorded span carries that op id.
func (t *tracer) beginOp(op int32) int32 {
	if !t.enabled() {
		return -1
	}
	t.op.Store(op)
	id := t.start("op", -1)
	t.cur.Store(id)
	return id
}

func (t *tracer) endOp(id int32) {
	if id < 0 {
		return
	}
	t.end(id, 0)
	t.cur.Store(-1)
	t.op.Store(-1)
}

// setName renames a span whose class is known only once it ran.
func (t *tracer) setName(id int32, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// endStage closes a stage span with its heap allocation delta.
func (t *tracer) endStage(id int32, allocs, bytes uint64) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	sp := &t.spans[id]
	sp.End, sp.Stage, sp.Allocs, sp.Bytes = now, true, allocs, bytes
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far. Indices match
// Parent; a span still open (a request in flight at shutdown) is
// closed at zero length.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// windows returns the wall-clock [start, end] of every span named name.
func (t *tracer) windows(name string) [][2]time.Time {
	var out [][2]time.Time
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, [2]time.Time{t.epoch.Add(time.Duration(s.Start)), t.epoch.Add(time.Duration(s.End))})
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (the union, so overlapping
// children from two workers are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = s.dur()
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		curLo, curHi := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if curHi < 0 || lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[i] -= time.Duration(covered)
	}
	return self
}

// writeSpans dumps the recorded spans and the stage table as JSON.
func writeSpans(path string, workload string, spans []span, stages []stageRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string     `json:"workload"`
		Stages   []stageRow `json:"stages"`
		Spans    []span     `json:"spans"`
	}{workload, stages, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- HTTP wrappers -------------------------------------------------------

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
	n    int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// traceHandler wraps a server handler so every served request is a
// span named prefix + "." + class(request, status) under the open stage.
func traceHandler(t *tracer, prefix string, class func(*http.Request, int) string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		// The class is known only after the handler ran, so the span
		// is opened anonymous and named at the end.
		id := t.startChild(prefix)
		next.ServeHTTP(sw, r)
		if c := class(r, sw.code); c != "" {
			t.setName(id, prefix+"."+c)
		}
		t.end(id, sw.n)
	})
}

// tracedTransport is the client-side wrapper: one span per round trip,
// closed when the response body is closed, so it covers what the
// caller waited for.
type tracedTransport struct {
	t     *tracer
	name  func(*http.Request) string
	inner http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.inner.RoundTrip(r)
	}
	id := tt.t.startChild(tt.name(r))
	resp, err := tt.inner.RoundTrip(r)
	if err != nil {
		tt.t.setName(id, tt.name(r)+".err")
		tt.t.end(id, 0)
		return nil, err
	}
	if c := resp.StatusCode; c != http.StatusOK && c != http.StatusNotModified {
		tt.t.setName(id, tt.name(r)+"."+strconv.Itoa(c))
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, id: id}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t    *tracer
	id   int32
	n    int64
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.id, b.n) })
	return err
}

// wrapTransport returns inner, traced when t is enabled.
func wrapTransport(t *tracer, name func(*http.Request) string, inner http.RoundTripper) http.RoundTripper {
	if t == nil {
		return inner
	}
	return &tracedTransport{t: t, name: name, inner: inner}
}

// --- aggregation ---------------------------------------------------------

// stageRow is one line of the per-workload stage table.
type stageRow struct {
	Stage  string  `json:"stage"`
	CalMs  float64 `json:"cal_ms_per_op"`
	Pct    float64 `json:"pct_of_op"`
	Allocs float64 `json:"allocs_per_op"`
	Bytes  float64 `json:"bytes_per_op"`
}

// spanSet indexes a run's spans for the per-layer metric code.
type spanSet struct {
	spans []span
	self  []time.Duration
	scale map[int32]float64 // op id -> calibration scale
}

// each calls fn for every span of a timed op whose name has the prefix.
func (ss *spanSet) each(prefix string, fn func(i int, s *span, scale float64)) {
	for i := range ss.spans {
		s := &ss.spans[i]
		sc, ok := ss.scale[s.Op]
		if !ok || !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		fn(i, s, sc)
	}
}

// calMs returns the calibrated duration in ms of every matching span.
func (ss *spanSet) calMs(prefix string) []float64 {
	var out []float64
	ss.each(prefix, func(_ int, s *span, sc float64) { out = append(out, ms(s.dur())*sc) })
	return out
}

// perOp sums val over matching spans per op and returns the per-op sums.
func (ss *spanSet) perOp(prefix string, val func(i int, s *span, scale float64) float64) []float64 {
	sums := make(map[int32]float64, len(ss.scale))
	for op := range ss.scale {
		sums[op] = 0
	}
	ss.each(prefix, func(i int, s *span, sc float64) { sums[s.Op] += val(i, s, sc) })
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// stageTable aggregates the stage spans of the timed ops by name.
func (ss *spanSet) stageTable() []stageRow {
	type acc struct{ ms, allocs, bytes float64 }
	byName := map[string]*acc{}
	var order []string
	var opMs float64
	for i := range ss.spans {
		s := &ss.spans[i]
		sc, ok := ss.scale[s.Op]
		if !ok {
			continue
		}
		if s.Parent < 0 {
			if s.Name == "op" {
				opMs += ms(s.dur()) * sc
			}
			continue
		}
		if !s.Stage {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.ms += ms(s.dur()) * sc
		a.allocs += float64(s.Allocs)
		a.bytes += float64(s.Bytes)
	}
	n := float64(len(ss.scale))
	rows := make([]stageRow, 0, len(order))
	for _, name := range order {
		a := byName[name]
		row := stageRow{Stage: name, CalMs: a.ms / n, Allocs: a.allocs / n, Bytes: a.bytes / n}
		if opMs > 0 {
			row.Pct = 100 * a.ms / opMs
		}
		rows = append(rows, row)
	}
	return rows
}
