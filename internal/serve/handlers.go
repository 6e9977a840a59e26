package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// maxPercentiles bounds the percentile list of one /v1/percentiles item.
const maxPercentiles = 32

// analysisCacheMax bounds the (workload, mix) -> Analysis memo; past it
// the map is dropped and refilled.
const analysisCacheMax = 4096

// analysisCache memoizes model evaluations per (workload, mix): the
// model is pure, so a warm entry turns /v1/percentiles and
// /v1/epmetrics into a map lookup plus percentile solves. The
// key is the (workload, mix) pair itself, so a lookup allocates nothing.
type analysisCache struct {
	mu sync.Mutex
	m  map[[2]string]*energyprop.Analysis
}

func (c *analysisCache) get(key [2]string) (*energyprop.Analysis, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.m[key]
	return a, ok
}

func (c *analysisCache) put(key [2]string, a *energyprop.Analysis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= analysisCacheMax {
		c.m = nil
	}
	if c.m == nil {
		c.m = make(map[[2]string]*energyprop.Analysis)
	}
	c.m[key] = a
}

// analysisFor resolves the cached Analysis for (workload, mix),
// computing and memoizing it on miss. An unknown workload or node type
// is a 404 statusError, every other failure a plain (400) error.
func (s *Server) analysisFor(wlName, mix string) (*energyprop.Analysis, error) {
	key := [2]string{wlName, mix}
	if a, ok := s.analyses.get(key); ok {
		return a, nil
	}
	wl, err := s.cfg.Workloads.Lookup(wlName)
	if err != nil {
		return nil, &statusError{http.StatusNotFound, err}
	}
	cfg, err := cli.ParseMix(s.cfg.Catalog, mix, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("invalid mix %q: %v", mix, err)
	}
	a, err := energyprop.Analyze(cfg, wl, model.Options{}, 200)
	if err != nil {
		return nil, err
	}
	s.analyses.put(key, a)
	return a, nil
}

// PercentilePoint is one percentile of the waiting/response-time
// distribution in a PercentilesResponse.
type PercentilePoint struct {
	// P is the percentile in [0, 100).
	P float64 `json:"p"`
	// WaitSeconds is the p-th percentile of the time a job waits before
	// service begins.
	WaitSeconds float64 `json:"wait_seconds"`
	// ResponseSeconds is the p-th percentile of the sojourn time
	// (wait + deterministic service).
	ResponseSeconds float64 `json:"response_seconds"`
}

// PercentilesResponse is the /v1/percentiles response body.
type PercentilesResponse struct {
	// Workload and Mix echo the request in model mode; both are empty in
	// raw service-time mode.
	Workload string `json:"workload,omitempty"`
	Mix      string `json:"mix,omitempty"`
	// Kernel names the queueing kernel when a non-default one was
	// selected ("mg1", "mmk"); absent for the M/D/1 default, so default
	// responses are byte-identical to the pre-kernel API. SCV and Servers
	// echo the kernel's shape parameter when set.
	Kernel  string  `json:"kernel,omitempty"`
	SCV     float64 `json:"scv,omitempty"`
	Servers int     `json:"servers,omitempty"`
	// Utilization is the server utilization rho the queue was built for.
	Utilization float64 `json:"utilization"`
	// ServiceTimeSeconds is the aggregate service time: the model's job
	// execution time T_P in model mode, the d parameter in raw mode. For
	// the M/D/1 default it is the deterministic service time.
	ServiceTimeSeconds float64 `json:"service_time_seconds"`
	// ArrivalRatePerSecond is the Poisson arrival rate rho/D.
	ArrivalRatePerSecond float64 `json:"arrival_rate_per_second"`
	// MeanWaitSeconds and MeanResponseSeconds are the Pollaczek-Khinchine
	// means.
	MeanWaitSeconds     float64 `json:"mean_wait_seconds"`
	MeanResponseSeconds float64 `json:"mean_response_seconds"`
	// Percentiles holds one entry per requested p, in request order.
	Percentiles []PercentilePoint `json:"percentiles"`
}

// checkFinite names the first float of the result that is not finite.
// A service time near the float64 limit can scale a finite normalized
// wait or mean past it; JSON cannot carry the result, so the request is
// answered as a bad one rather than failing in the encoder.
func (r *PercentilesResponse) checkFinite() error {
	type field struct {
		name string
		v    float64
	}
	for _, f := range [...]field{{"utilization", r.Utilization}, {"service_time_seconds", r.ServiceTimeSeconds},
		{"scv", r.SCV}, {"arrival_rate_per_second", r.ArrivalRatePerSecond},
		{"mean_wait_seconds", r.MeanWaitSeconds}, {"mean_response_seconds", r.MeanResponseSeconds}} {
		if !isFinite(f.v) {
			return overflowError(f.name, f.v)
		}
	}
	for i, pt := range r.Percentiles {
		for _, f := range [...]field{{"p", pt.P}, {"wait_seconds", pt.WaitSeconds}, {"response_seconds", pt.ResponseSeconds}} {
			if !isFinite(f.v) {
				return overflowError(fmt.Sprintf("percentiles[%d].%s", i, f.name), f.v)
			}
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// overflowError is the 400 for a result field that left float64's range.
func overflowError(field string, v float64) error {
	return fmt.Errorf("result field %s is %g: the inputs overflow float64", field, v)
}

// kernelSpecFrom maps the request-level kernel selector fields onto a
// validated queueing.Spec. The empty kernel name is the M/D/1 default,
// keeping every pre-kernel request shape working unchanged.
func kernelSpecFrom(kernel string, scv float64, servers int) (queueing.Spec, error) {
	kind, err := queueing.ParseKind(kernel)
	if err != nil {
		return queueing.Spec{}, err
	}
	spec := queueing.Spec{Kind: kind, SCV: scv, Servers: servers}
	if err := spec.Validate(); err != nil {
		return queueing.Spec{}, err
	}
	return spec, nil
}

// computePercentiles is the percentile evaluation core of
// /v1/percentiles: build the selected kernel at (u, serviceTime), run
// the batched percentile solves under ctx, and materialize the
// response. Identical questions are not coalesced: the solves cost a
// few microseconds, less than a flight's key and lock. With the default
// spec the output is byte-identical to the pre-kernel M/D/1 path.
//
// Service is deterministic under M/D/1 and under M/G/1 at SCV 0, which
// is M/D/1: there the sojourn percentile is the wait percentile plus
// the service time, bit for bit what the kernel's own sojourn batch
// computes, so each percentile is solved once.
func computePercentiles(ctx context.Context, wlName, mix string, serviceTime, u float64, ps []float64, spec queueing.Spec) (*PercentilesResponse, error) {
	queue, err := spec.Build(u, serviceTime)
	if err != nil {
		return nil, err
	}
	waits, err := queue.WaitPercentilesContext(ctx, ps)
	if err != nil {
		return nil, err
	}
	deterministic := spec.Kind == queueing.KindMD1 || spec.Kind == queueing.KindMG1 && spec.SCV == 0
	var responses []float64
	if !deterministic {
		if responses, err = queue.ResponsePercentilesContext(ctx, ps); err != nil {
			return nil, err
		}
	}
	resp := &PercentilesResponse{
		Workload:             wlName,
		Mix:                  mix,
		Utilization:          u,
		ServiceTimeSeconds:   serviceTime,
		ArrivalRatePerSecond: u / serviceTime,
		MeanWaitSeconds:      queue.MeanWait(),
		MeanResponseSeconds:  queue.MeanResponse(),
		Percentiles:          make([]PercentilePoint, len(ps)),
	}
	if !spec.IsDefault() {
		resp.Kernel = spec.Kind.String()
		resp.SCV = spec.SCV
		resp.Servers = spec.Servers
	}
	for i, p := range ps {
		pt := PercentilePoint{P: p, WaitSeconds: waits[i]}
		if deterministic {
			pt.ResponseSeconds = waits[i] + serviceTime
		} else {
			pt.ResponseSeconds = responses[i]
		}
		resp.Percentiles[i] = pt
	}
	return resp, nil
}

// MetricsBlock carries the Table 3 cumulative proportionality metrics
// in an EPMetricsResponse.
type MetricsBlock struct {
	DPR      float64 `json:"dpr"`
	IPR      float64 `json:"ipr"`
	EPM      float64 `json:"epm"`
	LDR      float64 `json:"ldr"`
	ChordLDR float64 `json:"chord_ldr"`
}

// ReferenceBlock reports sub-linearity against a reference
// configuration's ideal proportionality line.
type ReferenceBlock struct {
	// Mix is the reference configuration.
	Mix string `json:"mix"`
	// PeakWatts is the reference peak power all curves normalize to.
	PeakWatts float64 `json:"peak_watts"`
	// Sublinear reports whether the configuration falls below the
	// reference ideal line anywhere on the probe grid.
	Sublinear bool `json:"sublinear"`
	// SublinearFromU/ToU bound the sub-linear utilization interval when
	// Sublinear is true.
	SublinearFromU float64 `json:"sublinear_from_u,omitempty"`
	SublinearToU   float64 `json:"sublinear_to_u,omitempty"`
}

// EPMetricsResponse is the /v1/epmetrics response body.
type EPMetricsResponse struct {
	Workload string `json:"workload"`
	Mix      string `json:"mix"`
	// TimeSeconds and EnergyJoules are the per-job time-energy model
	// outcome (Table 2).
	TimeSeconds  float64 `json:"time_seconds"`
	EnergyJoules float64 `json:"energy_joules"`
	// IdleWatts and PeakWatts are the endpoints of the power curve.
	IdleWatts float64 `json:"idle_watts"`
	PeakWatts float64 `json:"peak_watts"`
	// ThroughputPerSecond is work units per second while executing.
	ThroughputPerSecond float64 `json:"throughput_per_second"`
	// Metrics holds the cumulative proportionality metrics.
	Metrics MetricsBlock `json:"metrics"`
	// Reference is present when ref= was given.
	Reference *ReferenceBlock `json:"reference,omitempty"`
}

// epmetricsFor is the EP-metrics evaluation core of /v1/epmetrics.
func (s *Server) epmetricsFor(wlName, mix, refMix string) (*EPMetricsResponse, error) {
	if mix == "" {
		return nil, errors.New("missing mix=")
	}
	a, err := s.analysisFor(wlName, mix)
	if err != nil {
		return nil, err
	}
	m := a.Metrics()
	resp := &EPMetricsResponse{
		Workload:            wlName,
		Mix:                 mix,
		TimeSeconds:         float64(a.Result.Time),
		EnergyJoules:        float64(a.Result.Energy),
		IdleWatts:           float64(a.Result.IdlePower),
		PeakWatts:           float64(a.Result.BusyPower),
		ThroughputPerSecond: float64(a.Result.Throughput),
		Metrics: MetricsBlock{
			DPR: m.DPR, IPR: m.IPR, EPM: m.EPM, LDR: m.LDR, ChordLDR: m.ChordLDR,
		},
	}
	if refMix != "" {
		refA, err := s.analysisFor(wlName, refMix)
		if err != nil {
			return nil, err
		}
		ref := energyprop.Reference{PeakPower: float64(refA.Result.BusyPower)}
		block := &ReferenceBlock{Mix: refMix, PeakWatts: ref.PeakPower}
		lo, hi, sub := ref.SublinearRange(a.CurveRes, stats.Linspace(0.05, 1, 96))
		block.Sublinear = sub
		if sub {
			block.SublinearFromU, block.SublinearToU = lo, hi
		}
		resp.Reference = block
	}
	return resp, nil
}

// FrontierPoint is one configuration on the energy-deadline Pareto
// frontier in a FrontierResponse.
type FrontierPoint struct {
	// Mix is the configuration in COUNTxTYPE notation.
	Mix string `json:"mix"`
	// TimeSeconds and EnergyJoules are the per-job model outcome.
	TimeSeconds  float64 `json:"time_seconds"`
	EnergyJoules float64 `json:"energy_joules"`
	// PeakWatts is the configuration's nominal peak power.
	PeakWatts float64 `json:"peak_watts"`
	// MeanPowerWatts is the cluster-average power while executing.
	MeanPowerWatts float64 `json:"mean_power_watts"`
	// ResponseSeconds is the tail-latency annotation: the requested
	// percentile of the response time at the requested utilization under
	// the selected kernel. Present only when u= was given, so
	// unannotated sweeps keep their pre-kernel bytes.
	ResponseSeconds float64 `json:"response_seconds,omitempty"`
}

// FrontierResponse is the /v1/frontier response body.
type FrontierResponse struct {
	Workload string `json:"workload"`
	// Explored is the configuration-space size enumerated; Filtered how
	// many a power budget pruned before evaluation; Evaluated how many
	// ran through the model.
	Explored  int `json:"explored"`
	Filtered  int `json:"filtered"`
	Evaluated int `json:"evaluated"`
	// Frontier is the Pareto-optimal set, ascending in time.
	Frontier []FrontierPoint `json:"frontier"`
	// SweetRegion holds the frontier points meeting the deadline and
	// energy budget, when either was given.
	SweetRegion []FrontierPoint `json:"sweet_region,omitempty"`
	// Recommended is the minimum-energy sweet-region point, or the
	// minimum energy-delay-product frontier point when no constraint was
	// given. Absent when the sweet region is empty.
	Recommended *FrontierPoint `json:"recommended,omitempty"`
}

// frontierShared runs a resolved item's sweep under the singleflight
// group, or returns the item's resolution error. The key is built from
// the canonical parameters, so a GET and a batch item asking for the
// same sweep coalesce onto one computation. It is the server's one
// flight: a sweep costs hundreds of microseconds, a percentile solve
// microseconds.
func (s *Server) frontierShared(ctx context.Context, fi *frontierItem) (*FrontierResponse, error) {
	if fi.err != nil {
		return nil, fi.err
	}
	v, shared, err := s.flights.do(ctx, fi.flightKey(), func() (any, error) {
		return s.sweepFrontier(ctx, fi)
	})
	if shared {
		s.ins.coalesced.Inc()
		telemetry.RequestFrom(ctx).Add(telemetry.AttrCoalesced, 1)
	}
	if err != nil {
		return nil, err
	}
	return v.(*FrontierResponse), nil
}

// flightKey is the singleflight key of a resolved frontier item, built
// from its canonical parameters.
func (fi *frontierItem) flightKey() string {
	key := fmt.Sprintf("frontier|%s|%d|%d|%t|%g|%g|%g",
		fi.workload, fi.maxA9, fi.maxK10, fi.dvfs, fi.powerW, fi.deadline, fi.energy)
	if fi.u > 0 {
		// Annotated sweeps key on the annotation point and kernel too, so
		// they never coalesce with (or poison) an unannotated sweep.
		key += fmt.Sprintf("|lat|%g|%g|%s", fi.u, fi.pct, fi.spec.CacheTag())
	}
	return key
}

// tableFor returns the server's shared memoized unit-calc table for
// wl, building it on first use. Entries are keyed by the registry's
// profile pointer — exactly what SweepOptions.Table's identity check
// requires — and live for the server's lifetime: the memo holds one
// entry per distinct (type, cores, freq), tens of entries per
// workload.
func (s *Server) tableFor(wl *workload.Profile) *model.Table {
	if t, ok := s.tables.Load(wl); ok {
		return t.(*model.Table)
	}
	t, _ := s.tables.LoadOrStore(wl, model.NewTable(wl, model.Options{}))
	return t.(*model.Table)
}

// sweepFrontier runs the memoized frontier engine over the space
// under ctx — peak-power budget applied before evaluation, per-workload
// unit-calc table shared across requests, explored/evaluated/filtered
// counted over the full space — and folds the results into the
// frontier and sweet region. When the params ask for it, every
// frontier point is annotated with its tail latency under the selected
// kernel.
func (s *Server) sweepFrontier(ctx context.Context, fp *frontierItem) (*FrontierResponse, error) {
	wlName, powerW, deadline, energy := fp.workload, fp.powerW, fp.deadline, fp.energy
	// On the singleflight leader's request the sweep is timed and
	// attributed on its RequestContext (followers only record
	// coalesced=1).
	defer telemetry.Start(ctx, "serve.frontier_sweep").End()
	wl, err := s.cfg.Workloads.Lookup(wlName)
	if err != nil {
		return nil, err
	}
	resp := &FrontierResponse{Workload: wlName, Explored: fp.space}

	var budget *cluster.PowerBudget
	if powerW > 0 {
		budget = &cluster.PowerBudget{Cap: units.Watts(powerW), Switched: "A9", Switch: hardware.DefaultSwitch()}
	}

	// The engine attributes configs_evaluated/filtered/pruned and the
	// sweep phase to ctx's request itself. Pruned configurations fit the
	// budget and can run, so the response counts them as evaluated: the
	// documented meaning of evaluated is every in-budget configuration
	// the model can run.
	var st pareto.SweepStats
	frontier, err := pareto.FrontierSweep(fp.limits, wl, model.Options{}, pareto.SweepOptions{
		Budget:  budget,
		Context: ctx,
		Table:   s.tableFor(wl),
		Stats:   &st,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: frontier sweep: %w", err)
	}
	resp.Filtered = int(st.Filtered)
	resp.Evaluated = int(st.Evaluated + st.Pruned)
	// Tail-latency annotation: one response-percentile solve per frontier
	// point (not per explored configuration — the frontier is small).
	// latFor carries the figure onto the sweet-region and recommended
	// copies of a point.
	var lat []float64
	if fp.u > 0 {
		var err error
		lat, err = pareto.AnnotateLatencies(ctx, frontier, fp.u, fp.pct, fp.spec, 0)
		if err != nil {
			return nil, fmt.Errorf("serve: frontier latency annotation: %w", err)
		}
		// A huge scv near saturation scales the latency past float64,
		// which JSON cannot carry: a bad request, as for percentiles.
		for i, v := range lat {
			if !isFinite(v) {
				return nil, overflowError(fmt.Sprintf("frontier[%d].response_seconds", i), v)
			}
		}
	}
	latFor := make(map[string]float64, len(lat))
	resp.Frontier = make([]FrontierPoint, len(frontier))
	for i, p := range frontier {
		resp.Frontier[i] = frontierPoint(p)
		if lat != nil {
			resp.Frontier[i].ResponseSeconds = lat[i]
			latFor[resp.Frontier[i].Mix] = lat[i]
		}
	}

	if deadline > 0 || energy > 0 {
		sweet := pareto.SweetRegion(frontier, units.Seconds(deadline), units.Joules(energy))
		resp.SweetRegion = make([]FrontierPoint, len(sweet))
		best := -1
		for i, p := range sweet {
			resp.SweetRegion[i] = frontierPoint(p)
			resp.SweetRegion[i].ResponseSeconds = latFor[resp.SweetRegion[i].Mix]
			if best < 0 || p.Energy < sweet[best].Energy {
				best = i
			}
		}
		if best >= 0 {
			rec := resp.SweetRegion[best]
			resp.Recommended = &rec
		}
	} else if p, ok := pareto.MinEDP(frontier); ok {
		rec := frontierPoint(p)
		rec.ResponseSeconds = latFor[rec.Mix]
		resp.Recommended = &rec
	}
	return resp, nil
}

func frontierPoint(p pareto.Point) FrontierPoint {
	return FrontierPoint{
		Mix:            p.Config.String(),
		TimeSeconds:    float64(p.Time),
		EnergyJoules:   float64(p.Energy),
		PeakWatts:      float64(p.Config.NominalPeak()),
		MeanPowerWatts: float64(p.Result.BusyPower),
	}
}

// HealthResponse is the /v1/healthz and /v1/readyz response body.
type HealthResponse struct {
	Status string `json:"status"`
}

// handleHealthz reports process liveness: it answers 200 as long as the
// process can serve HTTP at all, including during drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleReadyz reports whether the service should receive new traffic:
// 200 "ready" while serving, 503 "draining" once Shutdown has begun —
// the flip happens before the listener drains, so load balancers see
// the instance leave the pool ahead of the drain.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ready"})
}

// allowGet enforces GET/HEAD on read-only endpoints.
func allowGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed", r.Method))
		return false
	}
	return true
}

// errNotFinite rejects NaN and ±Inf query values: NaN slips through
// every range check and ±Inf through most, and neither can be encoded
// in a JSON response.
var errNotFinite = errors.New("must be a finite number")

// parseFinite is strconv.ParseFloat restricted to finite values.
func parseFinite(raw string) (float64, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, errNotFinite
	}
	return v, err
}

// queryFloat parses the float query parameter name; absent or empty
// yields 0, or with required an error.
func queryFloat(q url.Values, name string, required bool) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		if required {
			return 0, errors.New("missing " + name + "=")
		}
		return 0, nil
	}
	v, err := parseFinite(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid %s=%q: %v", name, raw, err)
	}
	return v, nil
}

// queryInt parses the integer query parameter name; ok is false when it
// is absent or empty.
func queryInt(q url.Values, name string) (v int, ok bool, err error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, false, nil
	}
	if v, err = strconv.Atoi(raw); err != nil {
		return 0, false, fmt.Errorf("invalid %s=%q: want a non-negative integer", name, raw)
	}
	return v, true, nil
}

// queryPercentiles parses the comma-separated p= list; empty yields nil
// (the default list).
func queryPercentiles(raw string) ([]float64, error) {
	if raw == "" {
		return nil, nil
	}
	ps := make([]float64, 0, strings.Count(raw, ",")+1)
	for rest, more := raw, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		p, err := parseFinite(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("invalid percentile %q: want a number in [0, 100)", part)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// checkPercentile is the one range check of a percentile, shared by
// /v1/percentiles and the /v1/frontier latency annotation.
func checkPercentile(p float64) error {
	if p < 0 || p >= 100 {
		return fmt.Errorf("invalid percentile %g: want a number in [0, 100)", p)
	}
	return nil
}

// parseDurationOrSeconds parses both Go duration syntax ("1.5s",
// "300ms") and a bare number of seconds ("1.5"). The sign is the
// resolver's to check.
func parseDurationOrSeconds(raw string) (float64, error) {
	if v, err := parseFinite(raw); err == nil || err == errNotFinite {
		return v, err
	}
	d, err := time.ParseDuration(raw)
	return d.Seconds(), err
}
