package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// BuildInfo identifies the running binary: module version, VCS revision
// and build time when the binary was built from a checkout with VCS
// stamping, plus the Go toolchain. It is the /v1/version body and rides
// along on /v1/debug/stats and the startup log.
type BuildInfo struct {
	Service   string `json:"service"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	// Modified reports an un-committed working tree at build time.
	Modified bool `json:"modified,omitempty"`
}

// ReadBuildInfo extracts BuildInfo from the binary's embedded
// runtime/debug build information. Binaries built outside a VCS
// checkout (go test, plain go build of a copied tree) degrade to
// version "devel" with no revision.
func ReadBuildInfo() BuildInfo {
	b := BuildInfo{Service: "epserve", Version: "devel", GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		b.Version = v
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
			if len(b.Revision) > 12 {
				b.Revision = b.Revision[:12]
			}
		case "vcs.time":
			b.BuildTime = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// String renders the build info as the one-line form used by startup
// logs and loadgen output: "epserve devel@1a2b3c4d5e6f (go1.22.0)".
func (b BuildInfo) String() string {
	var sb strings.Builder
	sb.WriteString(b.Service)
	sb.WriteByte(' ')
	sb.WriteString(b.Version)
	if b.Revision != "" {
		sb.WriteByte('@')
		sb.WriteString(b.Revision)
		// Pseudo-versions from a modified tree already end in "+dirty";
		// don't stutter the marker.
		if b.Modified && !strings.HasSuffix(b.Version, "+dirty") {
			sb.WriteString("+dirty")
		}
	}
	sb.WriteString(" (")
	sb.WriteString(b.GoVersion)
	sb.WriteByte(')')
	return sb.String()
}

// handleVersion serves GET /v1/version: the BuildInfo of the running
// binary, so deployments can assert what is actually serving.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if !allowGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.build)
}

// LatencySummary condenses one route's latency histogram for
// /v1/debug/stats.
type LatencySummary struct {
	Count       uint64  `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// RouteStats is the RED view of one route on /v1/debug/stats: request
// rate (as a monotonic count), errors (the status class split) and
// duration (the latency summary), plus the route's SLO standing.
type RouteStats struct {
	Requests uint64            `json:"requests"`
	Status   map[string]uint64 `json:"status,omitempty"`
	Latency  *LatencySummary   `json:"latency,omitempty"`
	SLO      *SLOStatus        `json:"slo,omitempty"`
}

// AdmissionStats summarizes the admission plane on /v1/debug/stats.
type AdmissionStats struct {
	Admitted         uint64 `json:"admitted"`
	Shed             uint64 `json:"shed"`
	QueueWaits       uint64 `json:"queue_waits"`
	Panics           uint64 `json:"panics"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
}

// DebugStatsResponse is the /v1/debug/stats body: one JSON snapshot of
// everything an operator reaches for first — build identity, uptime,
// in-flight load, per-route RED + SLO standing, and the kernel-level
// counters (percentile searches, frontier sweep) behind them.
type DebugStatsResponse struct {
	Service       string    `json:"service"`
	Build         BuildInfo `json:"build"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// Inflight and QueueDepth are the live admission gauges.
	Inflight   float64        `json:"inflight"`
	QueueDepth float64        `json:"queue_depth"`
	Admission  AdmissionStats `json:"admission"`
	// Routes maps route label -> RED/SLO stats.
	Routes map[string]RouteStats `json:"routes"`
	// Counters carries every non-HTTP counter (serve.*, queueing.*,
	// pareto.*, ...) so kernel and sweep behavior is inspectable without
	// parsing the Prometheus exposition. HTTP and SLO counters are
	// omitted: Routes already folds them in.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// handleDebugStats serves GET /v1/debug/stats.
func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	if !allowGet(w, r) {
		return
	}
	snap := s.cfg.Telemetry.Snapshot()
	resp := DebugStatsResponse{
		Service:       "epserve",
		Build:         s.build,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Inflight:      s.ins.inflight.Value(),
		QueueDepth:    s.ins.queueDepth.Value(),
		Admission: AdmissionStats{
			Admitted:         s.ins.admitted.Value(),
			Shed:             s.ins.shed.Value(),
			QueueWaits:       s.ins.queueWaits.Value(),
			Panics:           s.ins.panics.Value(),
			DeadlineExceeded: s.ins.deadlineExceeded.Value(),
		},
		Routes: make(map[string]RouteStats, len(s.routes)),
	}
	for _, route := range s.routes {
		resp.Routes[route] = routeStats(snap, route, s.slos[route])
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "http.") || strings.HasPrefix(name, "slo.") {
			continue
		}
		if resp.Counters == nil {
			resp.Counters = make(map[string]uint64)
		}
		resp.Counters[name] = v
	}
	writeJSON(w, http.StatusOK, resp)
}

// routeStats folds one route's telemetry into its RED summary.
func routeStats(snap telemetry.Snapshot, route string, slo *sloTracker) RouteStats {
	rs := RouteStats{
		Requests: snap.Counters["http."+route+".requests"],
		SLO:      slo.status(),
	}
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		if n := snap.Counters["http."+route+".status_"+class]; n > 0 {
			if rs.Status == nil {
				rs.Status = make(map[string]uint64)
			}
			rs.Status[class] = n
		}
	}
	if hs, ok := snap.Histograms["http."+route+".seconds"]; ok && hs.Count > 0 {
		rs.Latency = &LatencySummary{
			Count:       hs.Count,
			MeanSeconds: hs.Mean,
			P50Seconds:  hs.P50,
			P95Seconds:  hs.P95,
			P99Seconds:  hs.P99,
			MaxSeconds:  hs.Max,
		}
	}
	return rs
}
