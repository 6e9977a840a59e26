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

// maxPercentiles bounds the p= list of one /v1/percentiles request.
const maxPercentiles = 32

// analysisCacheMax bounds the (workload, mix) -> Analysis memo; past it
// the map is dropped and refilled, mirroring the queueing percentile
// cache's overflow policy.
const analysisCacheMax = 4096

// analysisCache memoizes model evaluations per (workload, mix): the
// model is pure, so a warm entry turns /v1/percentiles and
// /v1/epmetrics into a map lookup plus (cached) percentile queries.
type analysisCache struct {
	mu sync.Mutex
	m  map[string]*energyprop.Analysis
}

func (c *analysisCache) get(key string) (*energyprop.Analysis, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.m[key]
	return a, ok
}

func (c *analysisCache) put(key string, a *energyprop.Analysis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= analysisCacheMax {
		c.m = nil
	}
	if c.m == nil {
		c.m = make(map[string]*energyprop.Analysis)
	}
	c.m[key] = a
}

// analysisFor resolves the cached Analysis for (workload, mix),
// computing and memoizing it on miss. On failure the returned status
// is the HTTP status the error maps to: lookup failures 404,
// everything else 400. It never touches the ResponseWriter, so both
// the scalar handlers and the batch per-item paths share it.
func (s *Server) analysisFor(wlName, mix string) (*energyprop.Analysis, int, error) {
	key := wlName + "|" + mix
	if a, ok := s.analyses.get(key); ok {
		return a, 0, nil
	}
	wl, err := s.cfg.Workloads.Lookup(wlName)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	cfg, err := cli.ParseMix(s.cfg.Catalog, mix, 0, 0)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("invalid mix %q: %v", mix, err)
	}
	a, err := energyprop.Analyze(cfg, wl, model.Options{}, 200)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	s.analyses.put(key, a)
	return a, 0, nil
}

// analysis is analysisFor with the scalar handlers' error writing.
func (s *Server) analysis(w http.ResponseWriter, wlName, mix string) (*energyprop.Analysis, bool) {
	a, status, err := s.analysisFor(wlName, mix)
	if err != nil {
		code := "bad_request"
		if status == http.StatusNotFound {
			code = "not_found"
		}
		writeError(w, status, code, err.Error())
		return nil, false
	}
	return a, true
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

// parseKernelParams parses the kernel=/scv=/servers= GET query form of
// kernelSpecFrom, writing the error response on failure.
func parseKernelParams(w http.ResponseWriter, q url.Values) (queueing.Spec, bool) {
	scv, ok := parseFloatParam(w, q.Get("scv"), "scv", false)
	if !ok {
		return queueing.Spec{}, false
	}
	servers, ok := parseIntParam(w, q.Get("servers"), "servers", 0)
	if !ok {
		return queueing.Spec{}, false
	}
	spec, err := kernelSpecFrom(q.Get("kernel"), scv, servers)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return queueing.Spec{}, false
	}
	return spec, true
}

// pctFlightKey is the singleflight key of one percentile evaluation:
// scalar GET requests and every item of a POST batch build the same key
// from the same canonical fields (workload, mix, service time, the
// cache-quantized utilization, the kernel identity, and the parsed
// percentile list), so a scalar caller and a batched caller asking the
// same question coalesce onto one computation. The M/D/1 default omits
// the kernel tag, keeping pre-kernel keys (and their coalescing
// behavior) unchanged; any other kernel appends its CacheTag so two
// kernels at the same load can never share a flight.
func pctFlightKey(wlName, mix string, serviceTime, u float64, ps []float64, spec queueing.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pct|%s|%s|%g|%g|", wlName, mix, serviceTime, queueing.QuantizedRho(u))
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", p)
	}
	if !spec.IsDefault() {
		b.WriteByte('|')
		b.WriteString(spec.CacheTag())
	}
	return b.String()
}

// computePercentiles is the percentile evaluation core shared by the
// scalar handler and the batch per-item path: build the selected kernel
// at (u, serviceTime), run the batched percentile solves under ctx, and
// materialize the response. With the default spec the output is
// byte-identical to the pre-kernel M/D/1 path.
func computePercentiles(ctx context.Context, wlName, mix string, serviceTime, u float64, ps []float64, spec queueing.Spec) (*PercentilesResponse, error) {
	queue, err := spec.Build(u, serviceTime)
	if err != nil {
		return nil, err
	}
	waits, err := queue.WaitPercentilesContext(ctx, ps)
	if err != nil {
		return nil, err
	}
	responses, err := queue.ResponsePercentilesContext(ctx, ps)
	if err != nil {
		return nil, err
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
		resp.Percentiles[i] = PercentilePoint{
			P:               p,
			WaitSeconds:     waits[i],
			ResponseSeconds: responses[i],
		}
	}
	return resp, nil
}

// percentilesShared runs computePercentiles under the singleflight
// group, attributing coalesced followers. Both the scalar handler and
// every batch item enter here, so identical questions across transports
// share one computation and one set of cache lookups.
func (s *Server) percentilesShared(ctx context.Context, wlName, mix string, serviceTime, u float64, ps []float64, spec queueing.Spec) (*PercentilesResponse, error) {
	key := pctFlightKey(wlName, mix, serviceTime, u, ps, spec)
	v, shared, err := s.flights.do(ctx, key, func() (any, error) {
		return computePercentiles(ctx, wlName, mix, serviceTime, u, ps, spec)
	})
	if shared {
		s.ins.coalesced.Inc()
		telemetry.RequestFrom(ctx).Add(telemetry.AttrCoalesced, 1)
	}
	if err != nil {
		return nil, err
	}
	return v.(*PercentilesResponse), nil
}

// handlePercentiles serves /v1/percentiles: waiting/response-time
// percentiles at a target utilization, for either a (workload, mix)
// pair run through the time-energy model or a raw service time d. The
// queueing kernel defaults to the exact M/D/1; kernel=mg1&scv= selects
// the two-moment M/G/1 and kernel=mmk&servers= the Erlang-C M/M/k. GET
// answers one (configuration, utilization) pair; POST takes a batch
// (see handlePercentilesBatch).
func (s *Server) handlePercentiles(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handlePercentilesBatch(w, r)
		return
	}
	if !allowGetBatch(w, r) {
		return
	}
	q := r.URL.Query()
	u, ok := parseFloatParam(w, q.Get("u"), "u", true)
	if !ok {
		return
	}
	if u < 0 || u >= 1 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("utilization u=%g outside [0, 1)", u))
		return
	}
	ps, ok := parsePercentiles(w, q.Get("p"))
	if !ok {
		return
	}
	spec, ok := parseKernelParams(w, q)
	if !ok {
		return
	}

	mix, rawD := q.Get("mix"), q.Get("d")
	var serviceTime float64
	var wlName string
	switch {
	case mix != "" && rawD != "":
		writeError(w, http.StatusBadRequest, "bad_request",
			"pass either mix= (model mode) or d= (raw service time), not both")
		return
	case mix != "":
		wlName = q.Get("workload")
		if wlName == "" {
			wlName = "EP"
		}
		a, ok := s.analysis(w, wlName, mix)
		if !ok {
			return
		}
		serviceTime = float64(a.Result.Time)
	case rawD != "":
		d, ok := parseFloatParam(w, rawD, "d", true)
		if !ok {
			return
		}
		if d <= 0 {
			writeError(w, http.StatusBadRequest, "bad_request",
				"service time d must be positive")
			return
		}
		serviceTime = d
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			"missing mix= (model mode) or d= (raw service time)")
		return
	}

	v, err := s.percentilesShared(r.Context(), wlName, mix, serviceTime, u, ps, spec)
	if err != nil {
		s.computeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
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

// epmetricsFor is the EP-metrics evaluation core shared by the scalar
// handler and the batch per-item path. On failure the returned status
// is the HTTP status the error maps to.
func (s *Server) epmetricsFor(wlName, mix, refMix string) (EPMetricsResponse, int, error) {
	if mix == "" {
		return EPMetricsResponse{}, http.StatusBadRequest, errors.New("missing mix=")
	}
	if wlName == "" {
		wlName = "EP"
	}
	a, status, err := s.analysisFor(wlName, mix)
	if err != nil {
		return EPMetricsResponse{}, status, err
	}
	m := a.Metrics()
	resp := EPMetricsResponse{
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
		refA, status, err := s.analysisFor(wlName, refMix)
		if err != nil {
			return EPMetricsResponse{}, status, err
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
	return resp, 0, nil
}

// handleEpmetrics serves /v1/epmetrics: the Table 3 energy
// proportionality metrics of one (workload, mix), optionally normalized
// against a reference mix to expose sub-linear proportionality. GET
// answers one configuration; POST takes a batch.
func (s *Server) handleEpmetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleEpmetricsBatch(w, r)
		return
	}
	if !allowGetBatch(w, r) {
		return
	}
	q := r.URL.Query()
	resp, status, err := s.epmetricsFor(q.Get("workload"), q.Get("mix"), q.Get("ref"))
	if err != nil {
		code := "bad_request"
		if status == http.StatusNotFound {
			code = "not_found"
		}
		writeError(w, status, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
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

// frontierParams is the canonical parameter set of one frontier sweep,
// shared by the GET handler, the batch per-item path and the admission
// weigher (which charges units proportional to the configuration-space
// size these parameters span).
type frontierParams struct {
	workload      string
	maxA9, maxK10 int
	dvfs          bool
	powerW        float64
	deadline      float64
	energy        float64
	// u > 0 enables the tail-latency annotation: every frontier point
	// gains the pct-th percentile response time at utilization u under
	// the spec kernel.
	u    float64
	pct  float64
	spec queueing.Spec
}

// frontierQueryParams parses the GET query form of frontierParams,
// writing the error response on failure.
func frontierQueryParams(w http.ResponseWriter, q url.Values) (frontierParams, bool) {
	p := frontierParams{workload: q.Get("workload")}
	if p.workload == "" {
		p.workload = "EP"
	}
	var ok bool
	if p.maxA9, ok = parseIntParam(w, q.Get("max_a9"), "max_a9", 32); !ok {
		return p, false
	}
	if p.maxK10, ok = parseIntParam(w, q.Get("max_k10"), "max_k10", 12); !ok {
		return p, false
	}
	p.dvfs = q.Get("dvfs") == "true" || q.Get("dvfs") == "1"
	if p.powerW, ok = parseFloatParam(w, q.Get("power"), "power", false); !ok {
		return p, false
	}
	if raw := q.Get("deadline"); raw != "" {
		d, err := parseDurationOrSeconds(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("invalid deadline %q: %v", raw, err))
			return p, false
		}
		p.deadline = d
	}
	if p.energy, ok = parseFloatParam(w, q.Get("energy"), "energy", false); !ok {
		return p, false
	}
	if p.u, ok = parseFloatParam(w, q.Get("u"), "u", false); !ok {
		return p, false
	}
	if p.u != 0 {
		if p.u < 0 || p.u >= 1 {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("utilization u=%g outside (0, 1)", p.u))
			return p, false
		}
		p.pct = 95
		if raw := q.Get("p"); raw != "" {
			pct, ok := parseFloatParam(w, raw, "p", false)
			if !ok {
				return p, false
			}
			if pct < 0 || pct >= 100 {
				writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("invalid percentile %g: want a number in [0, 100)", pct))
				return p, false
			}
			p.pct = pct
		}
		if p.spec, ok = parseKernelParams(w, q); !ok {
			return p, false
		}
	}
	return p, true
}

// frontierPlan resolves the sweep limits for p and checks the
// configuration-space cap. On failure the returned status is the HTTP
// status the error maps to. It never touches the ResponseWriter, so the
// scalar handler, the batch per-item path and the admission weigher all
// share it.
func (s *Server) frontierPlan(p frontierParams) (limits []cluster.Limit, space, status int, err error) {
	if _, err := s.cfg.Workloads.Lookup(p.workload); err != nil {
		return nil, 0, http.StatusNotFound, err
	}
	a9, err := s.cfg.Catalog.Lookup("A9")
	if err != nil {
		return nil, 0, http.StatusNotFound, err
	}
	k10, err := s.cfg.Catalog.Lookup("K10")
	if err != nil {
		return nil, 0, http.StatusNotFound, err
	}
	limits = []cluster.Limit{
		{Type: a9, MaxNodes: p.maxA9, FixCoresAndFreq: !p.dvfs},
		{Type: k10, MaxNodes: p.maxK10, FixCoresAndFreq: !p.dvfs},
	}
	space = cluster.SpaceSize(limits)
	if space > s.cfg.MaxFrontierConfigs {
		return nil, 0, http.StatusBadRequest,
			fmt.Errorf("configuration space %d exceeds the per-request cap %d; lower max_a9/max_k10 or disable dvfs",
				space, s.cfg.MaxFrontierConfigs)
	}
	return limits, space, 0, nil
}

// frontierShared runs the sweep for p under the singleflight group. The
// key is built from the canonical parameters, so a scalar GET and a
// batch item asking for the same sweep coalesce onto one computation.
func (s *Server) frontierShared(ctx context.Context, p frontierParams, limits []cluster.Limit) (*FrontierResponse, error) {
	key := fmt.Sprintf("frontier|%s|%d|%d|%t|%g|%g|%g",
		p.workload, p.maxA9, p.maxK10, p.dvfs, p.powerW, p.deadline, p.energy)
	if p.u > 0 {
		// Annotated sweeps key on the annotation point and kernel too, so
		// they never coalesce with (or poison) an unannotated sweep.
		key += fmt.Sprintf("|lat|%g|%g|%s", queueing.QuantizedRho(p.u), p.pct, p.spec.CacheTag())
	}
	v, shared, err := s.flights.do(ctx, key, func() (any, error) {
		return s.sweepFrontier(ctx, p, limits)
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

// handleFrontier serves /v1/frontier: the energy-deadline Pareto
// frontier over the A9/K10 mix space, with optional power budget,
// deadline and energy-budget constraints. The sweep fans out across the
// worker pool and honors the request deadline. GET answers one sweep;
// POST takes a batch.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleFrontierBatch(w, r)
		return
	}
	if !allowGetBatch(w, r) {
		return
	}
	p, ok := frontierQueryParams(w, r.URL.Query())
	if !ok {
		return
	}
	limits, _, status, err := s.frontierPlan(p)
	if err != nil {
		code := "bad_request"
		if status == http.StatusNotFound {
			code = "not_found"
		}
		writeError(w, status, code, err.Error())
		return
	}
	v, err := s.frontierShared(r.Context(), p, limits)
	if err != nil {
		s.computeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
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
// under ctx — peak-power budget applied as a pre-evaluation filter,
// per-workload unit-calc table shared across requests, pruning
// disabled so the explored/evaluated/filtered accounting in the
// response covers the full space — and folds the results into the
// frontier and sweet region. When the params ask for it, every
// frontier point is annotated with its tail latency under the selected
// kernel.
func (s *Server) sweepFrontier(ctx context.Context, fp frontierParams, limits []cluster.Limit) (*FrontierResponse, error) {
	wlName, powerW, deadline, energy := fp.workload, fp.powerW, fp.deadline, fp.energy
	// On the singleflight leader's request the sweep is attributed to its
	// RequestContext (followers only record coalesced=1); nil-safe
	// no-ops otherwise.
	rc := telemetry.RequestFrom(ctx)
	defer rc.Phase("serve.frontier_sweep")()
	wl, err := s.cfg.Workloads.Lookup(wlName)
	if err != nil {
		return nil, err
	}
	resp := &FrontierResponse{Workload: wlName, Explored: cluster.SpaceSize(limits)}

	var filter func(cluster.Config) bool
	if powerW > 0 {
		swt := hardware.DefaultSwitch()
		filter = func(cfg cluster.Config) bool {
			peak := float64(cfg.NominalPeak()) + float64(swt.Power(cfg.Count("A9")))
			return peak <= powerW
		}
	}

	// NoPrune keeps the response accounting exact: every in-budget
	// configuration is evaluated (or skipped as unsupported), never
	// bulk-pruned, so Evaluated + Filtered keep their documented API
	// meaning. The engine attributes configs_evaluated/filtered and the
	// sweep phase to rc itself.
	var st pareto.SweepStats
	frontier, err := pareto.FrontierSweep(limits, wl, model.Options{}, pareto.SweepOptions{
		Filter:  filter,
		NoPrune: true,
		Context: ctx,
		Table:   s.tableFor(wl),
		Request: rc,
		Stats:   &st,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: frontier sweep: %w", err)
	}
	resp.Filtered = int(st.Filtered)
	resp.Evaluated = int(st.Evaluated)
	// Tail-latency annotation: one response-percentile solve per frontier
	// point (not per explored configuration — the frontier is small), all
	// through the shared kernel percentile cache. latFor carries the
	// figure onto the sweet-region and recommended copies of a point.
	var lat []float64
	if fp.u > 0 {
		var err error
		lat, err = pareto.AnnotateLatencies(ctx, frontier, fp.u, fp.pct, fp.spec, s.cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("serve: frontier latency annotation: %w", err)
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

// computeError maps a computation error onto the HTTP error envelope:
// context errors (deadline, disconnect) become 504, everything else
// 400 — by the time computation starts, inputs were syntactically valid,
// so remaining failures are semantic (e.g. unstable queue).
func (s *Server) computeError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.deadlineError(w, r, err)
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
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

// allowGetBatch enforces GET/HEAD on the batch-capable endpoints, whose
// POST form was already dispatched; the Allow header advertises it.
func allowGetBatch(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD, POST")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed", r.Method))
		return false
	}
	return true
}

// parseFloatParam parses a float query parameter. With required=false
// an empty raw value yields (0, true).
func parseFloatParam(w http.ResponseWriter, raw, name string, required bool) (float64, bool) {
	if raw == "" {
		if required {
			writeError(w, http.StatusBadRequest, "bad_request", "missing "+name+"=")
			return 0, false
		}
		return 0, true
	}
	v, err := parseFinite(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("invalid %s=%q: %v", name, raw, err))
		return 0, false
	}
	return v, true
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

// parseIntParam parses an integer query parameter with a default for
// the empty value.
func parseIntParam(w http.ResponseWriter, raw, name string, def int) (int, bool) {
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("invalid %s=%q: want a non-negative integer", name, raw))
		return 0, false
	}
	return v, true
}

// parsePercentiles parses the comma-separated p= list, defaulting to
// 50,95,99.
func parsePercentiles(w http.ResponseWriter, raw string) ([]float64, bool) {
	if raw == "" {
		return []float64{50, 95, 99}, true
	}
	parts := strings.Split(raw, ",")
	if len(parts) > maxPercentiles {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("at most %d percentiles per request, got %d", maxPercentiles, len(parts)))
		return nil, false
	}
	ps := make([]float64, 0, len(parts))
	for _, part := range parts {
		p, err := parseFinite(strings.TrimSpace(part))
		if err != nil || p < 0 || p >= 100 {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("invalid percentile %q: want a number in [0, 100)", part))
			return nil, false
		}
		ps = append(ps, p)
	}
	return ps, true
}

// parseDurationOrSeconds accepts both Go duration syntax ("1.5s",
// "300ms") and a bare number of seconds ("1.5").
func parseDurationOrSeconds(raw string) (float64, error) {
	if v, err := parseFinite(raw); err == nil {
		if v < 0 {
			return 0, errors.New("must be non-negative")
		}
		return v, nil
	} else if err == errNotFinite {
		return 0, err
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, errors.New("must be non-negative")
	}
	return d.Seconds(), nil
}
