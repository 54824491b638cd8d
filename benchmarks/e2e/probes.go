package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpd"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
)

// Layer probes: micro-measurements of single layers on the workload's
// own dataset directory, taken once in the traced run after the ops.
// They exist so that a change to one codec path or one index builder
// has a number of its own, next to the end-to-end metric it should
// move. Every probe is calibrated like an op.

// measure runs fn rounds times, each round bracketed by calibration
// samples, and returns the median calibrated milliseconds plus the
// mean heap allocations (objects, bytes) of one call.
func (h *harness) measure(rounds int, fn func() error) (calMs, allocs, bytes float64, err error) {
	var vals []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.GC()
		before := h.cal.sample()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		after := h.cal.sample()
		vals = append(vals, ms(wall)*calScale(before, after))
		allocs += float64(m1.Mallocs - m0.Mallocs)
		bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	n := float64(rounds)
	return median(vals), allocs / n, bytes / n, nil
}

// probeRounds is how many calibrated rounds each layer probe takes and
// maxChainProbe how many deltas of a chain the per-day probes walk;
// the toy size takes one round over two deltas.
func (h *harness) probeRounds() int {
	if h.size == sizeToy {
		return 1
	}
	return 5
}

func (h *harness) maxChainProbe() int {
	if h.size == sizeToy {
		return 2
	}
	return 8
}

// chainFiles returns ixp's base .bin and its .delta files (date order
// is name order) in dir.
func chainFiles(dir, ixp string) (base string, deltas []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ixp+"-") || strings.HasPrefix(name, ".") {
			continue
		}
		switch {
		case strings.HasSuffix(name, collector.DeltaExt):
			deltas = append(deltas, filepath.Join(dir, name))
		case strings.HasSuffix(name, collector.CodecBinary.Ext()):
			base = filepath.Join(dir, name)
		}
	}
	sort.Strings(deltas)
	if base == "" || len(deltas) == 0 {
		return "", nil, fmt.Errorf("no %s chain in %s", ixp, dir)
	}
	return base, deltas, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// probeDataset measures the codec read/write side and the three index
// builders on one IXP's chain in dir.
func probeDataset(h *harness, m metricSet, dir string, p ixpgen.Profile) error {
	basePath, deltaPaths, err := chainFiles(dir, p.IXP)
	if err != nil {
		return err
	}
	if n := h.maxChainProbe(); len(deltaPaths) > n {
		deltaPaths = deltaPaths[:n]
	}
	probeRounds := h.probeRounds()

	// collector: binary decode / encode.
	var base *collector.Snapshot
	v, _, _, err := h.measure(probeRounds, func() (err error) {
		base, err = collector.LoadSnapshot(basePath)
		return err
	})
	if err != nil {
		return err
	}
	m.set("collector.binary_decode_ms", v, "ms")
	var cw countingWriter
	if v, _, _, err = h.measure(probeRounds, func() error {
		cw.n = 0
		return collector.WriteSnapshot(&cw, base, collector.CodecBinary)
	}); err != nil {
		return err
	}
	m.set("collector.binary_encode_ms", v, "ms")
	m.set("collector.binary_bytes_per_route", float64(cw.n)/float64(max(1, len(base.Routes))), "bytes")

	// collector: delta open / apply / encode, one sample per chained day.
	var openMs, applyMs, encMs, encAllocs, deltaBytes, deltaRoutes []float64
	applier, err := collector.NewDeltaApplier(base)
	if err != nil {
		return err
	}
	encoder, err := collector.NewDeltaEncoder(base)
	if err != nil {
		return err
	}
	for _, path := range deltaPaths {
		var dr *collector.DeltaReader
		if v, _, _, err = h.measure(1, func() (err error) {
			dr, err = collector.OpenDelta(path)
			return err
		}); err != nil {
			return err
		}
		openMs = append(openMs, v)
		var day *collector.Snapshot
		if v, _, _, err = h.measure(1, func() (err error) {
			day, err = applier.Apply(dr)
			return err
		}); err != nil {
			return err
		}
		applyMs = append(applyMs, v)
		var buf []byte
		v, a, _, err := h.measure(1, func() (err error) {
			buf, err = encoder.Encode(day)
			return err
		})
		if err != nil {
			return err
		}
		encMs = append(encMs, v)
		encAllocs = append(encAllocs, a)
		deltaBytes = append(deltaBytes, float64(len(buf)))
		deltaRoutes = append(deltaRoutes, float64(max(1, dr.NextRoutes())))
	}
	m.set("collector.delta_open_ms", median(openMs), "ms")
	m.set("collector.delta_apply_ms", median(applyMs), "ms")
	// The crawl workload measures encode and write inside its op; the
	// others take this probe's re-encode of their own chain.
	if _, ok := m["collector.delta_encode_ms"]; !ok {
		m.set("collector.delta_encode_ms", median(encMs), "ms")
		m.set("collector.delta_encode_allocs", median(encAllocs), "count")
	}
	m.set("collector.delta_bytes_per_route", mean(deltaBytes)/mean(deltaRoutes), "bytes")

	// analysis: one row per index builder.
	var series *analysis.Index
	if v, _, _, err = h.measure(probeRounds, func() error {
		sr, err := collector.OpenSnapshotAt(basePath)
		if err != nil {
			return err
		}
		defer sr.Close()
		series, err = analysis.IndexSeriesFromReader(sr, p.Scheme)
		return err
	}); err != nil {
		return err
	}
	m.set("analysis.index_base_ms", v, "ms")
	if v, _, _, err = h.measure(probeRounds, func() error {
		sr, err := collector.OpenSnapshotAt(basePath)
		if err != nil {
			return err
		}
		defer sr.Close()
		_, err = analysis.IndexFromReader(sr, p.Scheme)
		return err
	}); err != nil {
		return err
	}
	m.set("analysis.index_columns_ms", v, "ms")
	var routesIx *analysis.Index
	if v, _, _, err = h.measure(probeRounds, func() error {
		routesIx = analysis.NewIndex(base, p.Scheme)
		return nil
	}); err != nil {
		return err
	}
	m.set("analysis.index_routes_ms", v, "ms")

	var advMs, advAllocs []float64
	cur := series
	for _, path := range deltaPaths {
		dr, err := collector.OpenDelta(path)
		if err != nil {
			return err
		}
		v, a, _, err := h.measure(1, func() (err error) {
			cur, err = cur.Advance(dr)
			return err
		})
		if err != nil {
			return err
		}
		advMs = append(advMs, v)
		advAllocs = append(advAllocs, a)
	}
	m.set("analysis.advance_ms_per_day", median(advMs), "ms")
	m.set("analysis.advance_allocs_per_day", median(advAllocs), "count")

	// analysis: the daemon's two point lookups.
	asns := make([]uint32, 0, len(base.Members))
	for _, mem := range base.Members {
		asns = append(asns, mem.ASN)
	}
	var comms []bgp.Community
	for _, cc := range routesIx.TopActionCommunities(false, 32) {
		comms = append(comms, cc.Community)
	}
	if len(asns) > 0 && len(comms) > 0 {
		const lookups = 200_000
		var sink int
		v, _, _, _ := h.measure(probeRounds, func() error {
			for i := 0; i < lookups/2; i++ {
				sink += routesIx.ASActivity(asns[i%len(asns)], i&1 == 1).Routes
				sink += routesIx.CommunityUsage(comms[i%len(comms)], i&1 == 1).ActionInstances
			}
			return nil
		})
		h.cal.sink += uint64(sink)
		m.set("analysis.lookup_ns", v*1e6/lookups, "ns")
	}
	return nil
}

// probeExperiments splits the batch job's experiment cost into the
// visibility experiment (its own generate + RS export) and the rest.
func probeExperiments(h *harness, m metricSet, spec datasetSpec, dir string) error {
	lab := newLab(spec)
	if err := lab.LoadSnapshotDir(dir); err != nil {
		return err
	}
	probeRounds := h.probeRounds()
	v, _, _, err := h.measure(probeRounds, func() error { return lab.Run(io.Discard, "visibility") })
	if err != nil {
		return err
	}
	m.set("report.exp.visibility_ms", v, "ms")
	var rest []string
	for _, name := range report.ExperimentNames {
		if name != "visibility" {
			rest = append(rest, name)
		}
	}
	if v, _, _, err = h.measure(probeRounds, func() error {
		_, err := lab.RunMany(rest)
		return err
	}); err != nil {
		return err
	}
	m.set("report.exp_rest_ms", v, "ms")
	return nil
}

// nopResponse is an http.ResponseWriter that keeps nothing but the
// header map, so an in-process request costs only what the handler
// itself does.
type nopResponse struct {
	h    http.Header
	code int
}

func (w *nopResponse) Header() http.Header         { return w.h }
func (w *nopResponse) WriteHeader(code int)        { w.code = code }
func (w *nopResponse) Write(p []byte) (int, error) { return len(p), nil }

// probeDaemon measures the warm 200 and the 304 path straight through
// Handler().ServeHTTP: what the daemon costs without net/http around it.
func probeDaemon(h *harness, m metricSet, srv *ixpd.Server, path string) {
	handler := srv.Handler()
	w := &nopResponse{h: make(http.Header)}
	serve := func(req *http.Request) int {
		clear(w.h)
		w.code = http.StatusOK
		handler.ServeHTTP(w, req)
		return w.code
	}
	// The requests are built once and reused, so the allocation counts
	// are the handler's alone.
	warm, _ := http.NewRequest(http.MethodGet, path, nil)
	serve(warm) // make sure the serving generation has the query cached
	revalidate, _ := http.NewRequest(http.MethodGet, path, nil)
	revalidate.Header.Set("If-None-Match", w.h.Get("ETag"))
	const reps = 20_000
	probeRounds := h.probeRounds()
	for _, c := range []struct {
		name string
		req  *http.Request
		want int
	}{{"warm", warm, http.StatusOK}, {"304", revalidate, http.StatusNotModified}} {
		bad := 0
		v, allocs, _, _ := h.measure(probeRounds, func() error {
			for i := 0; i < reps; i++ {
				if serve(c.req) != c.want {
					bad++
				}
			}
			return nil
		})
		if bad > 0 {
			h.log("in-process %s probe: %d unexpected statuses", c.name, bad)
			continue
		}
		m.set("ixpd.inproc_"+c.name+"_ns", v*1e6/reps, "ns")
		m.set("ixpd.inproc_"+c.name+"_allocs", allocs/reps, "count")
	}
}

// probeColdHeld measures what one cold request leaves on the heap until
// the daemon's RequestTimeout has passed — today the admission wait's
// time.After timer: live heap right after a burst of in-process cold
// requests, minus live heap once an identical earlier burst has timed
// out, per request. Both bursts leave the response cache in the same
// state, so the cache cancels out.
func probeColdHeld(h *harness, m metricSet, srv *ixpd.Server, coldURL func() string) {
	handler := srv.Handler()
	w := &nopResponse{h: make(http.Header)}
	n, wait := 10_000, daemonRequestTimeout+100*time.Millisecond
	if h.size == sizeToy {
		n, wait = 100, 0
	}
	burst := func() {
		for i := 0; i < n; i++ {
			req, _ := http.NewRequest(http.MethodGet, coldURL(), nil)
			clear(w.h)
			handler.ServeHTTP(w, req)
		}
	}
	burst()
	time.Sleep(wait)
	before := liveHeapMB()
	burst()
	m.set("ixpd.cold_held_bytes_per_req", (liveHeapMB()-before)*1e6/float64(n), "bytes")
}
