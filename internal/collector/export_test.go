package collector

import (
	"runtime"
	"testing"
)

// Helpers the external test package (collector_test, which can import
// ixpgen) shares with this one.

// ReportPerRoute adds allocs/route and B/route to a benchmark whose
// every iteration handles the given number of routes, measured over
// the timed loop that just ended.
func ReportPerRoute(b *testing.B, before *runtime.MemStats, routes int) {
	b.Helper()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(routes)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/route")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/route")
}
