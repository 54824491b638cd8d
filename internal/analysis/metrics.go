package analysis

import (
	"sync/atomic"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/telemetry"
)

// indexMetrics instruments index construction. The builders are
// package-level functions, so the instrument set lives in a
// package-level atomic rather than threading through every signature;
// SetTelemetry installs it once at process start.
type indexMetrics struct {
	reg          *telemetry.Registry
	buildSeconds *telemetry.Histogram
	builds       *telemetry.CounterVec
}

var indexTel atomic.Pointer[indexMetrics]

// SetTelemetry instruments the analysis package's index builds on the
// given registry. Passing nil turns instrumentation back off. Like
// every telemetry hook in this repo, the disabled state costs one
// atomic load on the instrumented paths.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		indexTel.Store(nil)
		return
	}
	indexTel.Store(&indexMetrics{
		reg: reg,
		buildSeconds: reg.Histogram("ixplight_analysis_index_build_seconds",
			"Classified-index construction time.", nil),
		builds: reg.CounterVec("ixplight_analysis_index_builds_total",
			"Classified-index constructions by what fed the fold: routes is a materialized []bgp.Route, columns a binary snapshot's route block, delta the previous day's index advanced by a snapshot delta.", "source"),
	})
}

// tel reads the installed instrument set (nil when off).
func tel() *indexMetrics { return indexTel.Load() }

// building instruments one index construction: it counts the build by
// source ("routes", "columns" or "delta" — the rebuild-vs-advance
// split) and opens an analysis.index_build span carrying the
// snapshot's identity; the returned func, to be deferred, ends the
// span and records the build time.
func (t *indexMetrics) building(source string, head *collector.Snapshot) (done func()) {
	if t == nil {
		return func() {}
	}
	t.builds.With(source).Inc()
	sp := t.reg.StartSpan("analysis.index_build")
	sp.SetAttr("ixp", head.IXP)
	sp.SetAttr("date", head.Date)
	sp.SetAttr("source", source)
	t0 := time.Now()
	return func() {
		t.buildSeconds.ObserveDuration(time.Since(t0))
		sp.End()
	}
}
