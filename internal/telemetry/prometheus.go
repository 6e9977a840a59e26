package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// promName maps a registry instrument name onto the Prometheus metric
// name charset [a-zA-Z0-9_:]: dots (the registry's namespace separator)
// and any other disallowed rune become underscores, so
// "queueing.percentile_searches" exports as
// "queueing_percentile_searches".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			r = '_'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// WritePrometheus writes every instrument in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled buckets plus _sum and
// _count. Metric families are emitted in sorted name order, so the
// output is deterministic for a given set of instrument values. A nil
// registry writes nothing and returns nil, keeping a /metrics endpoint
// valid before collection starts.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics writes the same instruments in the OpenMetrics text
// format: counter samples gain the mandatory _total suffix, bucket
// lines carry the latest request-ID exemplar recorded for that bucket
// ("# {request_id=\"...\"} value"), and the exposition is terminated
// with "# EOF". This is the format behind /metrics when the scraper
// negotiates application/openmetrics-text — exemplar-aware backends
// link a latency bucket straight to one request's access-log line.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeExposition(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	s := r.Snapshot()

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		sample := pn
		if openMetrics {
			// OpenMetrics requires the _total suffix on counter samples;
			// the TYPE line names the family without it.
			sample = pn + "_total"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, sample, s.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		exemplars := make(map[int]Exemplar, len(h.Exemplars))
		if openMetrics {
			for _, e := range h.Exemplars {
				exemplars[e.Bucket] = e
			}
		}
		// Prometheus buckets are cumulative; the registry's are per-cell.
		cum := uint64(0)
		for i, bound := range h.Bounds {
			if i < len(h.Buckets) {
				cum += h.Buckets[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d", pn, fmt.Sprintf("%g", bound), cum); err != nil {
				return err
			}
			if err := writeExemplar(w, exemplars, i); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d", pn, h.Count); err != nil {
			return err
		}
		if err := writeExemplar(w, exemplars, len(h.Bounds)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "\n%s_sum %g\n%s_count %d\n", pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeExemplar appends the OpenMetrics exemplar suffix for bucket i
// when one was recorded; a plain-Prometheus exposition passes an empty
// map and writes nothing.
func writeExemplar(w io.Writer, exemplars map[int]Exemplar, i int) error {
	e, ok := exemplars[i]
	if !ok {
		return nil
	}
	_, err := fmt.Fprintf(w, " # {request_id=%q} %g", e.RequestID, e.Value)
	return err
}

// openMetricsContentType is the negotiated content type of an
// exemplar-carrying exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// PrometheusHandler returns an http.Handler serving the registry in the
// Prometheus text exposition format — the body behind a service's
// /metrics endpoint. Scrapers that accept application/openmetrics-text
// get the OpenMetrics form instead, including per-bucket request-ID
// exemplars. A nil registry serves an empty (valid) exposition.
func (r *Registry) PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", openMetricsContentType)
			r.WriteOpenMetrics(w) //nolint:errcheck // client went away; nothing to do
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client went away; nothing to do
	})
}
