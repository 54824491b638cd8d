package telemetry_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ixplight/internal/lg"
	"ixplight/internal/telemetry"
)

// lgFixture is a minimal looking glass answering only /status — enough
// for the logical-call hot path the benchmark drives.
func lgFixture() (*httptest.Server, error) {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"ixp":"BENCH","version":"1.0","rs_asn":64512}`))
	})), nil
}

// BenchmarkTelemetryOverhead measures the cost of each instrument hot
// path, enabled and disabled. The disabled (nil-registry) cases are
// the contract the instrumented subsystems rely on: report 0 B/op.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := telemetry.New().Counter("ixplight_bench_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-inc-disabled", func(b *testing.B) {
		var r *telemetry.Registry
		c := r.Counter("ixplight_bench_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-vec-with-inc", func(b *testing.B) {
		v := telemetry.New().CounterVec("ixplight_bench_vec_total", "", "cause")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.With("transport").Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := telemetry.New().Histogram("ixplight_bench_seconds", "", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.005)
		}
	})
	b.Run("histogram-observe-parallel", func(b *testing.B) {
		h := telemetry.New().Histogram("ixplight_bench_par_seconds", "", nil)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(0.005)
			}
		})
	})
	b.Run("histogram-observe-disabled", func(b *testing.B) {
		var r *telemetry.Registry
		h := r.Histogram("ixplight_bench_seconds", "", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.005)
		}
	})
}

// BenchmarkSpanOverhead pins the two cost tiers of hierarchical
// tracing:
//
//   - disabled: no sink installed — the every-binary default. The
//     contract is 0 B/op, 0 allocs/op; instrumented hot paths pay
//     nothing until someone passes -trace.
//   - recorded: the full path — span allocated, attribute attached,
//     emitted to a sink.
func BenchmarkSpanOverhead(b *testing.B) {
	ctx := context.Background()
	b.Run("disabled", func(b *testing.B) {
		r := telemetry.New() // no sink installed
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := telemetry.StartSpan(ctx, r, "bench.op")
			sp.SetAttr("k", "v")
			sp.End()
		}
	})
	b.Run("recorded", func(b *testing.B) {
		r := telemetry.New()
		r.SetSpanSink(discardSink{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := telemetry.StartSpan(ctx, r, "bench.op")
			sp.SetAttr("k", "v")
			sp.End()
		}
	})
}

type discardSink struct{}

func (discardSink) Emit(telemetry.Span) {}

// BenchmarkLGClientTelemetry compares the LG client's logical-call
// hot path with instrumentation off (nil Metrics — must not add
// allocations over the seed behaviour) and on.
func BenchmarkLGClientTelemetry(b *testing.B) {
	server, err := lgFixture()
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	bench := func(b *testing.B, m *lg.Metrics) {
		c := lg.NewClient(server.URL, lg.ClientOptions{Metrics: m})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Status(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { bench(b, nil) })
	b.Run("on", func(b *testing.B) {
		bench(b, lg.NewMetrics(telemetry.New()))
	})
}

// BenchmarkDisabledInstrumentHelpers pins the nil-receiver helper
// pattern: zero-time clock plus ignored ObserveSince.
func BenchmarkDisabledInstrumentHelpers(b *testing.B) {
	var r *telemetry.Registry
	h := r.Histogram("ixplight_bench_helper_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(time.Time{})
	}
}
