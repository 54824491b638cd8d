package collector

import (
	"sync/atomic"
	"time"

	"ixplight/internal/telemetry"
)

// codecMetrics instruments the snapshot codecs. Reading snapshots
// happens through package-level functions (LoadSnapshot,
// OpenSnapshotAt), so like analysis.SetTelemetry the instrument set
// lives in a package-level atomic instead of threading through every
// call site. A disabled state costs one atomic load per decode.
type codecMetrics struct {
	reg           *telemetry.Registry
	decodeSeconds *telemetry.HistogramVec // snapshot decode wall time, by codec
	decodeBytes   *telemetry.CounterVec   // encoded bytes read, by codec
	decodeRoutes  *telemetry.CounterVec   // routes decoded, by codec
	internHits    *telemetry.CounterVec   // encode-side intern table hits, by table
	internMisses  *telemetry.CounterVec   // encode-side intern table misses (new entries)

	deltaEncodeSeconds *telemetry.Histogram  // delta encode wall time
	deltaEncodeBytes   *telemetry.Counter    // delta bytes produced
	deltaApplySeconds  *telemetry.Histogram  // delta apply wall time
	deltaApplyRoutes   *telemetry.Counter    // routes materialized by delta application
	deltaOps           *telemetry.CounterVec // route ops encoded, by op kind
}

var codecTelPtr atomic.Pointer[codecMetrics]

// SetTelemetry instruments the snapshot codec layer (decode time,
// bytes read and the binary codec's intern-table hit ratios) on the
// given registry. Passing nil turns instrumentation back off.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		codecTelPtr.Store(nil)
		return
	}
	codecTelPtr.Store(&codecMetrics{
		reg: reg,
		decodeSeconds: reg.HistogramVec("ixplight_codec_decode_seconds",
			"Snapshot decode wall time by codec.", nil, "codec"),
		decodeBytes: reg.CounterVec("ixplight_codec_decode_bytes_total",
			"Encoded snapshot bytes read by codec.", "codec"),
		decodeRoutes: reg.CounterVec("ixplight_codec_decode_routes_total",
			"Routes decoded from snapshots by codec.", "codec"),
		internHits: reg.CounterVec("ixplight_codec_intern_hits_total",
			"Binary-codec encode lookups answered by an existing intern-table entry, by table.", "table"),
		internMisses: reg.CounterVec("ixplight_codec_intern_misses_total",
			"Binary-codec encode lookups that created a new intern-table entry, by table.", "table"),
		deltaEncodeSeconds: reg.Histogram("ixplight_codec_delta_encode_seconds",
			"Snapshot delta encode wall time.", nil),
		deltaEncodeBytes: reg.Counter("ixplight_codec_delta_encode_bytes_total",
			"Encoded snapshot delta bytes produced."),
		deltaApplySeconds: reg.Histogram("ixplight_codec_delta_apply_seconds",
			"Snapshot delta apply wall time.", nil),
		deltaApplyRoutes: reg.Counter("ixplight_codec_delta_apply_routes_total",
			"Routes materialized by snapshot delta application."),
		deltaOps: reg.CounterVec("ixplight_codec_delta_ops_total",
			"Route ops encoded into snapshot deltas, by op kind (copy counts runs, not routes).", "op"),
	})
}

// codecTel reads the installed instrument set (nil when off).
func codecTel() *codecMetrics { return codecTelPtr.Load() }

// now is the zero-cost clock: the zero time when instrumentation is
// off, which decoded ignores.
func (t *codecMetrics) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// decoded records one finished snapshot decode: wall time, encoded
// size and route count, under the one codec's label.
func (t *codecMetrics) decoded(t0 time.Time, bytes int64, routes int) {
	if t == nil {
		return
	}
	name := CodecBinary.String()
	t.decodeSeconds.With(name).ObserveSince(t0)
	t.decodeBytes.With(name).Add(bytes)
	t.decodeRoutes.With(name).Add(int64(routes))
}

// interned publishes one intern table's encode-side hit/miss counts;
// hits/(hits+misses) is the table's dedup ratio.
func (t *codecMetrics) interned(table string, hits, misses int64) {
	if t == nil {
		return
	}
	t.internHits.With(table).Add(hits)
	t.internMisses.With(table).Add(misses)
}

// deltaEncoded records one finished delta encode: wall time, output
// size and the op mix (copies count runs, not the routes they cover).
func (t *codecMetrics) deltaEncoded(t0 time.Time, bytes int64, copies, adds, dels, changes int64) {
	if t == nil {
		return
	}
	t.deltaEncodeSeconds.ObserveSince(t0)
	t.deltaEncodeBytes.Add(bytes)
	t.deltaOps.With("copy").Add(copies)
	t.deltaOps.With("add").Add(adds)
	t.deltaOps.With("del").Add(dels)
	t.deltaOps.With("change").Add(changes)
}

// deltaApplied records one finished delta application.
func (t *codecMetrics) deltaApplied(t0 time.Time, routes int) {
	if t == nil {
		return
	}
	t.deltaApplySeconds.ObserveSince(t0)
	t.deltaApplyRoutes.Add(int64(routes))
}
