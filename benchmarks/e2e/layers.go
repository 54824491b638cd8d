package main

import (
	"runtime"
	"strings"
)

// metricDef names one metric and its unit. BENCHMARK.json carries the
// same names (the smoke test pins the two lists against each other)
// plus each metric's direction and regression bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run (-trace 0) reports: what a
// user of the pipeline sees. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cal_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_cal_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics a traced run (-trace 1) reports: one layer
// each. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// set-up layers → setup_s
	{"ixpgen.generate_ms_per_day", "ms"},
	{"rs.populate_ms", "ms"},
	{"ixpd.load_ms", "ms"},
	// looking glass → crawl
	{"lg.server_ms_per_crawl", "ms"},
	{"lg.roundtrip_ms_per_crawl", "ms"},
	{"lg.requests_per_crawl", "count"},
	{"lg.response_mb_per_crawl", "MB"},
	{"lg.retries_per_crawl", "count"},
	// collector → crawl (write side), analyze/reload (read side)
	{"collector.collect_ms", "ms"},
	{"collector.collect_self_ms", "ms"},
	{"collector.delta_encode_ms", "ms"},
	{"collector.delta_encode_allocs", "count"},
	{"collector.delta_write_ms", "ms"},
	{"collector.delta_bytes_per_route", "bytes"},
	{"collector.binary_encode_ms", "ms"},
	{"collector.binary_bytes_per_route", "bytes"},
	{"collector.binary_decode_ms", "ms"},
	{"collector.delta_open_ms", "ms"},
	{"collector.delta_apply_ms", "ms"},
	// analysis: one row per index builder
	{"analysis.index_base_ms", "ms"},
	{"analysis.advance_ms_per_day", "ms"},
	{"analysis.advance_allocs_per_day", "count"},
	{"analysis.index_columns_ms", "ms"},
	{"analysis.index_routes_ms", "ms"},
	{"analysis.lookup_ns", "ns"},
	// report → analyze, reload
	{"report.load_ms", "ms"},
	{"report.load_alloc_mb", "MB"},
	{"report.expall_ms", "ms"},
	{"report.exp.visibility_ms", "ms"},
	{"report.exp_rest_ms", "ms"},
	{"report.expall_allocs", "count"},
	{"report.output_bytes", "bytes"},
	// ixpd warm path → serve-warm
	{"ixpd.warm_req_p50_us", "us"},
	{"ixpd.warm_req_p99_us", "us"},
	{"ixpd.etag304_req_p50_us", "us"},
	{"ixpd.warm_req_per_s", "1/s"},
	{"ixpd.handler_warm_us", "us"},
	{"ixpd.handler_304_us", "us"},
	{"http.stack_us", "us"},
	{"ixpd.inproc_warm_ns", "ns"},
	{"ixpd.inproc_304_ns", "ns"},
	{"ixpd.inproc_warm_allocs", "count"},
	{"ixpd.inproc_304_allocs", "count"},
	{"ixpd.cache_hit_ratio", "ratio"},
	// ixpd miss path → serve-cold
	{"ixpd.cold_experiment_p50_us", "us"},
	{"ixpd.cold_lookup_p50_us", "us"},
	{"ixpd.cold_series_p50_us", "us"},
	{"ixpd.handler_cold_us", "us"},
	{"ixpd.computes_per_round", "count"},
	{"ixpd.shed_503", "count"},
	{"ixpd.timeout_504", "count"},
	{"ixpd.cold_held_bytes_per_req", "bytes"},
	// ixpd reload → reload
	{"ixpd.reload_ms", "ms"},
	{"ixpd.reload_alloc_mb", "MB"},
	{"ixpd.first_query_ms", "ms"},
	{"ixpd.reload_vs_full_ratio", "ratio"},
	{"ixpd.probe_p99_ms_during_reload", "ms"},
	{"ixpd.probe_errors", "count"},
	// the harness itself: the uncalibrated truth and the machine's mood
	{"harness.op_cal_p90_ms", "ms"},
	{"harness.raw_op_p50_ms", "ms"},
	{"harness.raw_cpu_ms_per_op", "ms"},
	{"harness.cal_ms_p50", "ms"},
	{"harness.cal_ms_iqr", "ms"},
	{"harness.memlat_ms_p50", "ms"},
	{"harness.alu_ms_p50", "ms"},
	{"harness.gomaxprocs", "count"},
	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.timed_ops", "count"},
	{"harness.setup_fs_ms", "ms"},
	{"harness.fail_ratio", "ratio"},
}

// setupLayerMetrics turns the median set-up's stage times into the
// set-up layer metrics.
func setupLayerMetrics(m metricSet, r *setupResult) {
	if r.genDays > 0 {
		m.set("ixpgen.generate_ms_per_day", r.stageCalMs("ixpgen.generate")/float64(r.genDays), "ms")
	}
	m.set("rs.populate_ms", r.stageCalMs("rs.populate"), "ms")
	m.set("ixpd.load_ms", r.stageCalMs("ixpd.load"), "ms")
	// File-system time is not calibrated: a CPU kernel says nothing about it.
	m.set("harness.setup_fs_ms", ms(r.stages["harness.fs_write"]), "ms")
}

// spanLayerMetrics derives every span-based per-layer metric. A name
// whose spans this workload never produced is simply not set here and
// keeps its zero.
func spanLayerMetrics(m metricSet, ss *spanSet) {
	sumMs := func(_ int, s *span, sc float64) float64 { return ms(s.dur()) * sc }
	one := func(int, *span, float64) float64 { return 1 }
	has := func(prefix string) bool {
		found := false
		ss.each(prefix, func(int, *span, float64) { found = true })
		return found
	}
	us := func(vals []float64, q float64) float64 { return quantile(vals, q) * 1000 }
	stageMean := func(name string, val func(int, *span, float64) float64) float64 {
		return mean(ss.perOp(name, val))
	}
	allocs := func(_ int, s *span, _ float64) float64 { return float64(s.Allocs) }
	mb := func(_ int, s *span, _ float64) float64 { return float64(s.Bytes) / 1e6 }

	if has("lg.roundtrip") {
		m.set("lg.server_ms_per_crawl", stageMean("lg.handler", sumMs), "ms")
		m.set("lg.roundtrip_ms_per_crawl", stageMean("lg.roundtrip", sumMs), "ms")
		m.set("lg.requests_per_crawl", stageMean("lg.roundtrip", one), "count")
		m.set("lg.response_mb_per_crawl", stageMean("lg.roundtrip", func(_ int, s *span, _ float64) float64 {
			return float64(s.N) / 1e6
		}), "MB")
		m.set("lg.retries_per_crawl", stageMean("lg.roundtrip.", one), "count")
	}
	if has("collector.collect") {
		m.set("collector.collect_ms", stageMean("collector.collect", sumMs), "ms")
		m.set("collector.collect_self_ms", stageMean("collector.collect", func(i int, _ *span, sc float64) float64 {
			return ms(ss.self[i]) * sc
		}), "ms")
		m.set("collector.delta_encode_ms", stageMean("collector.delta_encode", sumMs), "ms")
		m.set("collector.delta_encode_allocs", stageMean("collector.delta_encode", allocs), "count")
		m.set("collector.delta_write_ms", stageMean("collector.delta_write", sumMs), "ms")
	}
	if has("report.load") {
		m.set("report.load_ms", stageMean("report.load", sumMs), "ms")
		m.set("report.load_alloc_mb", stageMean("report.load", mb), "MB")
		m.set("report.expall_ms", stageMean("report.expall", sumMs), "ms")
		m.set("report.expall_allocs", stageMean("report.expall", allocs), "count")
	}
	if has("ixpd.round") {
		client, handler := ss.calMs("http.rt."), ss.calMs("ixpd.handler.")
		m.set("http.stack_us", us(client, 0.5)-us(handler, 0.5), "us")
		m.set("ixpd.shed_503", float64(countSuffix(ss, "http.rt.", ".503")), "count")
		m.set("ixpd.timeout_504", float64(countSuffix(ss, "http.rt.", ".504")), "count")
	}
	if warm := ss.calMs("http.rt.warm"); len(warm) > 0 {
		m.set("ixpd.warm_req_p50_us", us(warm, 0.5), "us")
		m.set("ixpd.warm_req_p99_us", us(warm, 0.99), "us")
		m.set("ixpd.etag304_req_p50_us", us(ss.calMs("http.rt.304"), 0.5), "us")
		m.set("ixpd.handler_warm_us", us(ss.calMs("ixpd.handler.warm"), 0.5), "us")
		m.set("ixpd.handler_304_us", us(ss.calMs("ixpd.handler.304"), 0.5), "us")
		var roundMs float64
		for _, v := range ss.calMs("ixpd.round") {
			roundMs += v
		}
		if roundMs > 0 {
			m.set("ixpd.warm_req_per_s", float64(len(warm)+len(ss.calMs("http.rt.304")))/(roundMs/1000), "1/s")
		}
	}
	if has("http.rt.cold.") {
		m.set("ixpd.cold_experiment_p50_us", us(ss.calMs("http.rt.cold.experiment"), 0.5), "us")
		m.set("ixpd.cold_lookup_p50_us", us(ss.calMs("http.rt.cold.lookup"), 0.5), "us")
		m.set("ixpd.cold_series_p50_us", us(ss.calMs("http.rt.cold.series"), 0.5), "us")
		m.set("ixpd.handler_cold_us", us(ss.calMs("ixpd.handler.cold"), 0.5), "us")
	}
	if has("ixpd.reload") {
		m.set("ixpd.reload_ms", stageMean("ixpd.reload", sumMs), "ms")
		m.set("ixpd.reload_alloc_mb", stageMean("ixpd.reload", mb), "MB")
		m.set("ixpd.first_query_ms", stageMean("ixpd.first_query", sumMs), "ms")
	}
}

// countSuffix counts spans of timed ops named prefix…suffix.
func countSuffix(ss *spanSet, prefix, suffix string) int {
	n := 0
	ss.each(prefix, func(_ int, s *span, _ float64) {
		if strings.HasSuffix(s.Name, suffix) {
			n++
		}
	})
	return n
}

// harnessLayerMetrics reports what the calibration hid and how noisy
// the machine was.
func harnessLayerMetrics(m metricSet, untraced, traced opStats) {
	all := untraced
	if all.n == 0 {
		all = traced
	}
	m.set("harness.op_cal_p90_ms", all.calP90, "ms")
	m.set("harness.raw_op_p50_ms", all.rawP50, "ms")
	m.set("harness.raw_cpu_ms_per_op", all.rawCPU, "ms")
	m.set("harness.cal_ms_p50", all.calMsP50, "ms")
	m.set("harness.cal_ms_iqr", all.calMsIQR, "ms")
	m.set("harness.memlat_ms_p50", all.memMsP50, "ms")
	m.set("harness.alu_ms_p50", all.aluMsP50, "ms")
	m.set("harness.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	if untraced.calP50 > 0 {
		m.set("harness.trace_overhead_ratio", traced.calP50/untraced.calP50, "ratio")
	}
	n, failed := untraced.n+traced.n, untraced.failed+traced.failed
	m.set("harness.timed_ops", float64(n), "count")
	if n > 0 {
		m.set("harness.fail_ratio", float64(failed)/float64(n), "ratio")
	}
}
