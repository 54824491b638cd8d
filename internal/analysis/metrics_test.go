package analysis

import (
	"testing"

	"ixplight/internal/telemetry"
)

// setTelemetryForTest installs a fresh registry and restores the
// disabled state when the test ends.
func setTelemetryForTest(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.New()
	SetTelemetry(reg)
	t.Cleanup(func() {
		SetTelemetry(nil)
	})
	return reg
}

// TestIndexBuildSpan: builds must emit an analysis.index_build span
// carrying the snapshot identity.
func TestIndexBuildSpan(t *testing.T) {
	reg := setTelemetryForTest(t)
	sink := &telemetry.RecordingSink{}
	reg.SetSpanSink(sink)
	s, scheme := genSnapshot(t, "DE-CIX")
	NewIndex(s, scheme)
	columnIndex(t, s, scheme)
	spans := sink.Named("analysis.index_build")
	if len(spans) != 2 {
		t.Fatalf("build spans = %d, want 2", len(spans))
	}
	for i, source := range []string{"routes", "columns"} {
		attrs := map[string]string{}
		for _, a := range spans[i].Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["ixp"] != s.IXP || attrs["date"] != s.Date || attrs["source"] != source {
			t.Errorf("span attrs = %v, want ixp=%s date=%s source=%s", attrs, s.IXP, s.Date, source)
		}
	}
}

// TestTelemetryOffCostsNothingVisible: with no registry installed a
// build must give the same index (a correctness guard for the
// nil-telemetry fast path).
func TestTelemetryOffCostsNothingVisible(t *testing.T) {
	s, scheme := genSnapshot(t, "DE-CIX")
	SetTelemetry(nil)
	off := NewIndex(s, scheme)
	setTelemetryForTest(t)
	on := NewIndex(s, scheme)
	for _, v6 := range []bool{false, true} {
		if off.Usage(v6) != on.Usage(v6) || off.Mix(v6) != on.Mix(v6) {
			t.Errorf("v6=%v: index built with telemetry off differs from one built with it on", v6)
		}
	}
}
