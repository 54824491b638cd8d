package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition
// format v0.0.4: families in name order, one HELP/TYPE header each,
// children in label order, histograms as cumulative _bucket/_sum/
// _count triplets. Families with no samples yet still emit their
// headers, so a scrape shows the full metric catalog from process
// start.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, ch := range f.sortedChildren() {
			if err := writeChild(w, f, ch); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, ch *child) error {
	labels := renderLabels(f.labels, ch.values)
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, ch.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, ch.g.Value())
		return err
	case kindHistogram:
		s := ch.h.snapshot()
		cum := uint64(0)
		for i, bound := range ch.h.bounds {
			cum += s.counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, renderLabelsLE(f.labels, ch.values, formatFloat(bound)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, renderLabelsLE(f.labels, ch.values, "+Inf"), s.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			f.name, labels, formatFloat(s.sum), f.name, labels, s.count); err != nil {
			return err
		}
		return nil
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	return renderLabelsLE(names, values, "")
}

// renderLabelsLE renders a label set, appending le when non-empty —
// the histogram bucket form.
func renderLabelsLE(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, SanitizeName(n), escapeLabel(values[i]))
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le="%s"`, le)
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot returns every counter's and gauge's current value keyed by
// its exposition name (label values rendered prometheus-style into the
// key) — what lg-server's final summary and tests read. Histograms are
// exposed by WritePrometheus only.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	for _, f := range r.sortedFamilies() {
		for _, ch := range f.sortedChildren() {
			key := f.name + renderLabels(f.labels, ch.values)
			switch f.kind {
			case kindCounter:
				out[key] = ch.c.Value()
			case kindGauge:
				out[key] = ch.g.Value()
			}
		}
	}
	return out
}

// Handler returns the operational HTTP surface: /metrics (Prometheus
// text format) and the standard /debug/pprof/ endpoints for live
// profiling.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
