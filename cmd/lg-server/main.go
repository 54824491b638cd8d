// Command lg-server runs a looking glass over a synthetic IXP route
// server — a local stand-in for lg.de-cix.net and friends.
//
// Usage:
//
//	lg-server [-ixp DE-CIX] [-addr :8080] [-scale 0.02] [-seed 42]
//	          [-flaky 0.0] [-admin] [-metrics-addr :9100] [-drain 5s]
//	          [-trace file]
//
// With -metrics-addr it serves the operational surface on a second
// listener: /metrics (Prometheus text format) and /debug/pprof/. With
// -admin it mounts /admin/flaky, the runtime failure-injection control
// the soak harness uses to flip chaos on and off mid-crawl.
//
// /healthz (liveness) and /readyz (readiness: workload populated and
// listener bound) are always mounted, outside both the chaos switch
// and the request instrumentation.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight LG
// requests drain (up to -drain), the telemetry listener closes, and a
// final telemetry summary is logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/rs"
	"ixplight/internal/telemetry"
)

func main() {
	ixp := flag.String("ixp", "DE-CIX", "IXP profile to simulate")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	scale := flag.Float64("scale", 0.02, "workload scale")
	seed := flag.Int64("seed", 42, "generation seed")
	flaky := flag.Float64("flaky", 0, "probability of injected 500 responses")
	admin := flag.Bool("admin", false, "mount /admin/flaky for runtime failure injection control")
	metricsAddr := flag.String("metrics-addr", "", "optional telemetry listen address serving /metrics and /debug/pprof (e.g. :9100)")
	tracePath := flag.String("trace", "", "write a trace ledger to this file: one root span per served LG request")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown deadline for in-flight requests")
	flag.Parse()

	profile := ixpgen.ProfileByName(*ixp)
	if profile == nil {
		log.Fatalf("unknown IXP %q", *ixp)
	}
	server, err := rs.New(rs.Config{
		Scheme:       profile.Scheme,
		MaxPathLen:   64,
		ScrubActions: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	w, err := ixpgen.Generate(*profile, ixpgen.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		log.Fatal(err)
	}
	st := server.Stats()
	log.Printf("%s: %d/%d members, %d/%d routes (v4/v6)",
		st.IXP, st.MembersV4, st.MembersV6, st.RoutesV4, st.RoutesV6)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The flaky switch is always in the chain (inactive options pass
	// straight through) so -admin can arm failure injection at runtime
	// even when the process started healthy.
	fs := lg.NewFlakySwitch(lg.NewServer(server), lg.FlakyOptions{ErrorRate: *flaky, Seed: *seed})
	var handler http.Handler = fs

	var reg *telemetry.Registry
	var telSrv *http.Server
	var traceSink *telemetry.JSONLSink
	if *metricsAddr != "" || *tracePath != "" {
		reg = telemetry.New()
		// Only the server's own ixplight_lg_server_* families: this
		// process runs no LG client, no collector and no analysis, and
		// a collector pointed at it is another process with its own
		// registry, so their families could only ever read zero here.
		handler = instrument(reg, handler)
	}
	if *tracePath != "" {
		traceSink, err = telemetry.NewJSONLSink(*tracePath, 0)
		if err != nil {
			log.Fatal(err)
		}
		reg.SetSpanSink(traceSink)
		handler = traceRequests(reg, handler)
		log.Printf("tracing requests → %s", *tracePath)
	}
	if *metricsAddr != "" {
		telSrv = &http.Server{Addr: *metricsAddr, Handler: reg.Handler()}
		go func() {
			log.Printf("telemetry on %s (/metrics, /debug/pprof)", *metricsAddr)
			if err := telSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("telemetry listener: %v", err)
			}
		}()
	}
	if *admin {
		// Admin traffic bypasses instrumentation: chaos control must
		// not perturb the request counters the soak harness reconciles.
		mux := http.NewServeMux()
		mux.Handle("/admin/", lg.AdminHandler(fs))
		mux.Handle("/", handler)
		handler = mux
		log.Printf("admin endpoint on %s/admin/flaky", *addr)
	}

	// Health probes mount outermost — like /admin, they bypass chaos
	// and instrumentation. Readiness flips once the listener is bound
	// (the workload populated above), so an orchestrator can tell
	// "starting" from "serving".
	var ready atomic.Bool
	handler = mountHealth(handler, &ready)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	ready.Store(true)

	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() {
		log.Printf("looking glass for %s on %s", *ixp, ln.Addr())
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight LG requests finish
	// (bounded by -drain), then tear the side listeners down.
	log.Printf("shutting down (drain %v)", *drain)
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if telSrv != nil {
		telSrv.Close()
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			log.Printf("trace ledger: %v", err)
		} else {
			log.Printf("trace ledger → %s", *tracePath)
		}
	}
	if reg != nil {
		logTelemetrySummary(reg)
	}
	log.Print("bye")
}

// logTelemetrySummary flushes a final one-line account of the served
// traffic so a soak run's logs end with the numbers it reconciles.
func logTelemetrySummary(reg *telemetry.Registry) {
	var total, errs int64
	for name, n := range reg.Snapshot() {
		if !strings.HasPrefix(name, "ixplight_lg_server_requests_total") {
			continue
		}
		total += n
		if strings.Contains(name, `code="5`) || strings.Contains(name, `code="4`) {
			errs += n
		}
	}
	log.Printf("final telemetry: %d requests served, %d non-2xx", total, errs)
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// traceRequests wraps the LG handler so every served request becomes
// a root span in the trace ledger (server-side counterpart of the
// client's lg.request spans).
func traceRequests(reg *telemetry.Registry, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := telemetry.StartSpan(r.Context(), reg, "lg_server.request")
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		sp.SetAttr("path", r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		sp.SetAttrInt("code", int64(rec.code))
		sp.End()
	})
}

// instrument wraps the LG handler with server-side request metrics.
func instrument(reg *telemetry.Registry, next http.Handler) http.Handler {
	requests := reg.CounterVec("ixplight_lg_server_requests_total",
		"LG HTTP requests served, by status code.", "code")
	seconds := reg.Histogram("ixplight_lg_server_request_seconds",
		"LG HTTP request handling time.", nil)
	inFlight := reg.Gauge("ixplight_lg_server_in_flight",
		"LG HTTP requests currently being handled.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		defer inFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		seconds.ObserveSince(t0)
		requests.With(strconv.Itoa(rec.code)).Inc()
	})
}
