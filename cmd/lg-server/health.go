package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
)

// mountHealth wraps the LG handler with the health pair. The probes
// sit outside the instrumented (and chaos-injected) chain: a liveness
// check must not count against the request totals the soak harness
// reconciles, and injected failures must never fail a probe.
//
//	/healthz — liveness: the process is up and serving.
//	/readyz  — readiness: the workload is populated and the listener
//	           is bound; 503 while starting.
func mountHealth(next http.Handler, ready *atomic.Bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"starting"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.Handle("/", next)
	return mux
}
