package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// The model routes — /v1/percentiles, /v1/epmetrics and /v1/frontier —
// have one serving path each. A request is decoded once, by the route's
// admission weigher, into the route's batch request type: a POST from
// its JSON body, a GET from its query as a batch of one item. The query
// decoders check syntax only; from the decoded request on, both methods
// share the route's per-item resolver (defaults, range checks, plan),
// its evaluator and the one status→code mapping in failure. A GET
// evaluates its item on the request goroutine and answers the bare
// result or the error envelope; a POST evaluates its items in order,
// on the same goroutine, through runBatch.
//
// The batch form exists for amortization — one connection, one JSON
// decode, one admission pass and one response encode for N evaluations
// — without letting batches dodge the load shedder: a batch is charged
// its expanded item count, so a batch of 512 items sheds exactly like
// 512 GETs would. Item failures are per-item: one bad mix in a batch of
// 100 yields 99 results and one error envelope. Only context errors
// (deadline, client disconnect) abort the whole batch, because every
// remaining item would fail the same way.

// maxBatchItems bounds the expanded per-item evaluation count of one
// batch request (items × utilization points for percentiles). The bound
// keeps one request from monopolizing the admission budget for seconds:
// at ~1 µs per warm item a full batch is still ~1 ms of work.
const maxBatchItems = 1024

// maxBatchBodyBytes bounds the POST body size read off the wire before
// decoding.
const maxBatchBodyBytes = 1 << 20

// maxFrontierConfigs caps the configuration-space size a single
// /v1/frontier item may ask to sweep, and each of its node counts.
const maxFrontierConfigs = 1 << 17

// frontierAdmissionUnit converts a frontier sweep's configuration-space
// size into admission units: one unit per 4096 configurations, matching
// roughly the cost ratio between one memoized-table sweep block and one
// percentile evaluation, so a 100k-configuration sweep cannot slip past
// admission for the price of one percentile lookup.
const frontierAdmissionUnit = 4096

// batchRequest is the decoded form of a model route's request.
type batchRequest[Req any] interface {
	*Req
	// price checks the request's structure and returns its admission
	// weight.
	price(s *Server) (int64, error)
}

// weigh is the admission weigher of every model route. It decodes the
// request once — a POST's JSON body, or a GET's (or HEAD's) query as a
// batch of one — and prices it; the route's handler receives the
// decoded request. Decode and structure failures answer 400 before
// admission, other methods 405.
func weigh[Req any, P batchRequest[Req]](s *Server, w http.ResponseWriter, r *http.Request, query func(url.Values) (P, error)) (int64, any, bool) {
	var req P
	var err error
	switch r.Method {
	case http.MethodPost:
		req = new(Req)
		r.Body = http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
		if err = json.NewDecoder(r.Body).Decode(req); err != nil {
			err = fmt.Errorf("invalid JSON body: %v", err)
		}
	case http.MethodGet, http.MethodHead:
		req, err = query(r.URL.Query())
	default:
		w.Header().Set("Allow", "GET, HEAD, POST")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed", r.Method))
		return 0, nil, false
	}
	var n int64
	if err == nil {
		n, err = req.price(s)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return 0, nil, false
	}
	return n, req, true
}

// checkItems is the structural check every batch shares.
func checkItems(n int) error {
	if n == 0 {
		return errors.New("batch has no items")
	}
	if n > maxBatchItems {
		return fmt.Errorf("batch has %d items, more than the per-request cap %d", n, maxBatchItems)
	}
	return nil
}

// BatchItemError is the per-item error envelope inside a batch
// response: the item's result slot carries it instead of a result, and
// the batch itself still answers 200.
type BatchItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// statusError is an evaluation error that maps to a status other than
// 400: a lookup that found nothing (404).
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }

// failure is the one status→code mapping of the model routes, shared by
// a GET's error response and a batch item's error slot: a context error
// is 504, a statusError carries its own status, anything else is 400.
func failure(err error) (int, *BatchItemError) {
	status := http.StatusBadRequest
	var se *statusError
	switch {
	case errors.As(err, &se):
		status = se.status
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	code := "bad_request"
	switch status {
	case http.StatusNotFound:
		code = "not_found"
	case http.StatusGatewayTimeout:
		code = "deadline_exceeded"
	}
	return status, &BatchItemError{Code: code, Message: err.Error()}
}

// writeFailure answers a failed evaluation with the error envelope; a
// context error goes through deadlineError, which counts it.
func (s *Server) writeFailure(w http.ResponseWriter, r *http.Request, err error) {
	status, e := failure(err)
	if status == http.StatusGatewayTimeout {
		s.deadlineError(w, r, err)
		return
	}
	writeError(w, status, e.Code, e.Message)
}

// answer writes a GET's one result bare, or its error envelope.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, v any, err error) {
	if err != nil {
		s.writeFailure(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// runBatch serves the POST of every model route. It evaluates the n
// result slots of the batch in order on the request goroutine — eval
// fills slot i and returns its error, fail stores a failed slot's
// envelope — and answers the envelope respond builds from the error
// count. The context is checked before every item, so a batch whose
// deadline has passed evaluates nothing more; a context error aborts
// the whole batch with 504.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, n int,
	eval func(ctx context.Context, i int) error, fail func(i int, e *BatchItemError), respond func(errs int) any) {
	ctx := r.Context()
	nerr := 0
	for i := range n {
		err := ctx.Err()
		if err == nil {
			if err = eval(ctx, i); err == nil {
				continue
			}
		}
		status, e := failure(err)
		if status == http.StatusGatewayTimeout {
			s.deadlineError(w, r, ctx.Err())
			return
		}
		fail(i, e)
		nerr++
	}
	s.batchMeta(w, r, n, nerr)
	writeJSON(w, http.StatusOK, respond(nerr))
}

// batchMeta is the shared bookkeeping of one batch response: counters,
// per-request attribution and the X-Batch-Errors header (which lets
// load generators count item failures without parsing bodies).
func (s *Server) batchMeta(w http.ResponseWriter, r *http.Request, items, itemErrors int) {
	s.ins.batchRequests.Inc()
	s.ins.batchItems.Add(uint64(items))
	s.ins.batchItemErrors.Add(uint64(itemErrors))
	rc := telemetry.RequestFrom(r.Context())
	rc.Add(telemetry.AttrBatchItems, int64(items))
	w.Header().Set("X-Batch-Errors", strconv.Itoa(itemErrors))
}

// --- /v1/percentiles ---

// PercentilesBatchItem is one configuration of a percentiles batch:
// either a (workload, mix) pair in model mode or a raw service time d,
// evaluated at every utilization in U (falling back to the
// request-level U) for the percentiles in P (falling back to the
// request-level P, then to 50,95,99).
type PercentilesBatchItem struct {
	Workload string    `json:"workload,omitempty"`
	Mix      string    `json:"mix,omitempty"`
	D        float64   `json:"d,omitempty"`
	U        []float64 `json:"u,omitempty"`
	P        []float64 `json:"p,omitempty"`
	// Kernel selects the queueing kernel ("md1", "mg1", "mmk"); SCV and
	// Servers carry its shape parameter. An item naming a kernel uses its
	// own (kernel, scv, servers) triple wholly; items that omit it fall
	// back to the request-level triple, then to the M/D/1 default.
	Kernel  string  `json:"kernel,omitempty"`
	SCV     float64 `json:"scv,omitempty"`
	Servers int     `json:"servers,omitempty"`
}

// PercentilesBatchRequest is the POST /v1/percentiles body: Items
// crossed with their utilization points, request-level U, P and the
// kernel triple serving as defaults for items that omit them.
type PercentilesBatchRequest struct {
	U       []float64              `json:"u,omitempty"`
	P       []float64              `json:"p,omitempty"`
	Kernel  string                 `json:"kernel,omitempty"`
	SCV     float64                `json:"scv,omitempty"`
	Servers int                    `json:"servers,omitempty"`
	Items   []PercentilesBatchItem `json:"items"`
}

// PercentilesBatchResult is one expanded (item, utilization) evaluation
// in a PercentilesBatchResponse: exactly one of Result and Error is
// set.
type PercentilesBatchResult struct {
	// Item indexes the request item this evaluation came from.
	Item int `json:"item"`
	// U is the utilization point evaluated.
	U      float64              `json:"u"`
	Result *PercentilesResponse `json:"result,omitempty"`
	Error  *BatchItemError      `json:"error,omitempty"`
}

// PercentilesBatchResponse is the POST /v1/percentiles response body.
// Results holds one entry per expanded (item, utilization) pair in
// deterministic item-major order.
type PercentilesBatchResponse struct {
	Count   int                      `json:"count"`
	Errors  int                      `json:"errors"`
	Results []PercentilesBatchResult `json:"results"`
}

// percentilesQuery decodes the GET query of /v1/percentiles into a
// one-item batch: the item carries the configuration and the one
// utilization point, the request level the percentile list and the
// kernel triple. A request-level triple applies wholly even without a
// kernel name, so scv= or servers= alone is still checked against the
// M/D/1 default.
func percentilesQuery(q url.Values) (*PercentilesBatchRequest, error) {
	u, err := queryFloat(q, "u", true)
	if err != nil {
		return nil, err
	}
	ps, err := queryPercentiles(q.Get("p"))
	if err != nil {
		return nil, err
	}
	scv, err := queryFloat(q, "scv", false)
	if err != nil {
		return nil, err
	}
	servers, _, err := queryInt(q, "servers")
	if err != nil {
		return nil, err
	}
	d, err := queryFloat(q, "d", false)
	if err != nil {
		return nil, err
	}
	return &PercentilesBatchRequest{
		P: ps, Kernel: q.Get("kernel"), SCV: scv, Servers: servers,
		Items: []PercentilesBatchItem{{Workload: q.Get("workload"), Mix: q.Get("mix"), D: d, U: []float64{u}}},
	}, nil
}

// uFor returns item i's utilization list after defaulting.
func (req *PercentilesBatchRequest) uFor(i int) []float64 {
	if len(req.Items[i].U) > 0 {
		return req.Items[i].U
	}
	return req.U
}

// pFor returns item i's percentile list after defaulting.
func (req *PercentilesBatchRequest) pFor(i int) []float64 {
	if len(req.Items[i].P) > 0 {
		return req.Items[i].P
	}
	if len(req.P) > 0 {
		return req.P
	}
	return defaultPercentiles
}

var defaultPercentiles = []float64{50, 95, 99}

// kernelFor resolves item i's kernel spec after defaulting: the item's
// own triple when it names a kernel, the request-level triple
// otherwise. Omitting both yields the M/D/1 default.
func (req *PercentilesBatchRequest) kernelFor(i int) (queueing.Spec, error) {
	kernel, scv, servers := req.Kernel, req.SCV, req.Servers
	if it := &req.Items[i]; it.Kernel != "" {
		kernel, scv, servers = it.Kernel, it.SCV, it.Servers
	}
	return kernelSpecFrom(kernel, scv, servers)
}

// price validates the request's structure and returns the expanded
// evaluation count, which is its admission weight: the sum over items
// of their utilization-point counts.
func (req *PercentilesBatchRequest) price(*Server) (int64, error) {
	if err := checkItems(len(req.Items)); err != nil {
		return 0, err
	}
	total := 0
	for i := range req.Items {
		n := len(req.uFor(i))
		if n == 0 {
			return 0, fmt.Errorf("item %d has no utilization points (set item u or request-level u)", i)
		}
		if np := len(req.pFor(i)); np > maxPercentiles {
			return 0, fmt.Errorf("item %d asks for %d percentiles, more than the cap %d", i, np, maxPercentiles)
		}
		total += n
	}
	if total > maxBatchItems {
		return 0, fmt.Errorf("batch expands to %d evaluations, more than the per-request cap %d", total, maxBatchItems)
	}
	return int64(total), nil
}

// pctItem is one /v1/percentiles item after resolution, shared by all
// its utilization points: the service time (one model analysis per
// item), the percentiles and the kernel — or the error that fails every
// point.
type pctItem struct {
	wlName, mix string
	serviceTime float64
	ps          []float64
	spec        queueing.Spec
	err         error
}

// resolvePercentiles is the per-item resolver of /v1/percentiles:
// defaults, the percentile, kernel and mode checks, and in model mode
// the service time.
func (s *Server) resolvePercentiles(req *PercentilesBatchRequest, i int) pctItem {
	it := &req.Items[i]
	pi := pctItem{ps: req.pFor(i)}
	for _, p := range pi.ps {
		if pi.err = checkPercentile(p); pi.err != nil {
			return pi
		}
	}
	if pi.spec, pi.err = req.kernelFor(i); pi.err != nil {
		return pi
	}
	switch {
	case it.Mix != "" && it.D != 0:
		pi.err = errors.New("pass either mix= (model mode) or d= (raw service time), not both")
	case it.Mix != "":
		pi.wlName, pi.mix = cmp.Or(it.Workload, "EP"), it.Mix
		var a *energyprop.Analysis
		if a, pi.err = s.analysisFor(pi.wlName, pi.mix); pi.err == nil {
			pi.serviceTime = float64(a.Result.Time)
		}
	case it.D > 0:
		pi.serviceTime = it.D
	case it.D < 0:
		pi.err = errors.New("service time d must be positive")
	default:
		pi.err = errors.New("missing mix= (model mode) or d= (raw service time)")
	}
	return pi
}

// evalPercentiles evaluates a resolved item at utilization u. A result
// that overflows float64 fails the item with 400, for GET and POST
// alike.
func (s *Server) evalPercentiles(ctx context.Context, pi *pctItem, u float64) (*PercentilesResponse, error) {
	if u < 0 || u >= 1 {
		return nil, fmt.Errorf("utilization u=%g outside [0, 1)", u)
	}
	if pi.err != nil {
		return nil, pi.err
	}
	v, err := computePercentiles(ctx, pi.wlName, pi.mix, pi.serviceTime, u, pi.ps, pi.spec)
	if err == nil {
		err = v.checkFinite()
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (s *Server) weighPercentiles(w http.ResponseWriter, r *http.Request) (int64, any, bool) {
	return weigh(s, w, r, percentilesQuery)
}

// handlePercentiles serves /v1/percentiles: waiting/response-time
// percentiles at a target utilization, for either a (workload, mix)
// pair run through the time-energy model or a raw service time d. The
// queueing kernel defaults to the exact M/D/1; kernel=mg1&scv= selects
// the two-moment M/G/1 and kernel=mmk&servers= the Erlang-C M/M/k. A
// POST crosses every item with its utilization points, item-major.
func (s *Server) handlePercentiles(w http.ResponseWriter, r *http.Request, decoded any) {
	req := decoded.(*PercentilesBatchRequest)
	if r.Method != http.MethodPost {
		pi := s.resolvePercentiles(req, 0)
		v, err := s.evalPercentiles(r.Context(), &pi, req.Items[0].U[0])
		s.answer(w, r, v, err)
		return
	}
	items := make([]pctItem, len(req.Items))
	n := 0
	for i := range req.Items {
		n += len(req.uFor(i))
	}
	results := make([]PercentilesBatchResult, 0, n)
	for i := range req.Items {
		items[i] = s.resolvePercentiles(req, i)
		for _, u := range req.uFor(i) {
			results = append(results, PercentilesBatchResult{Item: i, U: u})
		}
	}
	s.runBatch(w, r, n,
		func(ctx context.Context, k int) (err error) {
			res := &results[k]
			res.Result, err = s.evalPercentiles(ctx, &items[res.Item], res.U)
			return err
		},
		func(k int, e *BatchItemError) { results[k].Error = e },
		func(errs int) any { return PercentilesBatchResponse{Count: n, Errors: errs, Results: results} })
}

// --- /v1/epmetrics ---

// EPMetricsBatchItem is one (workload, mix, ref) evaluation of an
// EP-metrics batch; Workload and Ref fall back to the request level.
type EPMetricsBatchItem struct {
	Workload string `json:"workload,omitempty"`
	Mix      string `json:"mix"`
	Ref      string `json:"ref,omitempty"`
}

// EPMetricsBatchRequest is the POST /v1/epmetrics body.
type EPMetricsBatchRequest struct {
	Workload string               `json:"workload,omitempty"`
	Ref      string               `json:"ref,omitempty"`
	Items    []EPMetricsBatchItem `json:"items"`
}

// EPMetricsBatchResult is one item's outcome: exactly one of Result and
// Error is set.
type EPMetricsBatchResult struct {
	Item   int                `json:"item"`
	Result *EPMetricsResponse `json:"result,omitempty"`
	Error  *BatchItemError    `json:"error,omitempty"`
}

// EPMetricsBatchResponse is the POST /v1/epmetrics response body.
type EPMetricsBatchResponse struct {
	Count   int                    `json:"count"`
	Errors  int                    `json:"errors"`
	Results []EPMetricsBatchResult `json:"results"`
}

// epmetricsQuery decodes the GET query of /v1/epmetrics into a one-item
// batch.
func epmetricsQuery(q url.Values) (*EPMetricsBatchRequest, error) {
	return &EPMetricsBatchRequest{Workload: q.Get("workload"), Ref: q.Get("ref"),
		Items: []EPMetricsBatchItem{{Mix: q.Get("mix")}}}, nil
}

// price charges one unit per item.
func (req *EPMetricsBatchRequest) price(*Server) (int64, error) {
	return int64(len(req.Items)), checkItems(len(req.Items))
}

// epmetricsItem resolves item i — the request-level workload and ref
// are its defaults — and evaluates it.
func (s *Server) epmetricsItem(req *EPMetricsBatchRequest, i int) (*EPMetricsResponse, error) {
	it := &req.Items[i]
	return s.epmetricsFor(cmp.Or(it.Workload, req.Workload, "EP"), it.Mix, cmp.Or(it.Ref, req.Ref))
}

func (s *Server) weighEpmetrics(w http.ResponseWriter, r *http.Request) (int64, any, bool) {
	return weigh(s, w, r, epmetricsQuery)
}

// handleEpmetrics serves /v1/epmetrics: the Table 3 energy
// proportionality metrics of one (workload, mix), optionally normalized
// against a reference mix to expose sub-linear proportionality.
func (s *Server) handleEpmetrics(w http.ResponseWriter, r *http.Request, decoded any) {
	req := decoded.(*EPMetricsBatchRequest)
	if r.Method != http.MethodPost {
		v, err := s.epmetricsItem(req, 0)
		s.answer(w, r, v, err)
		return
	}
	results := make([]EPMetricsBatchResult, len(req.Items))
	s.runBatch(w, r, len(results),
		func(_ context.Context, i int) (err error) {
			results[i].Item = i
			results[i].Result, err = s.epmetricsItem(req, i)
			return err
		},
		func(i int, e *BatchItemError) { results[i].Error = e },
		func(errs int) any { return EPMetricsBatchResponse{Count: len(results), Errors: errs, Results: results} })
}

// --- /v1/frontier ---

// FrontierBatchItem is one frontier sweep of a batch. MaxA9/MaxK10
// default to 32/12 when omitted (nil), matching the GET defaults.
type FrontierBatchItem struct {
	Workload        string  `json:"workload,omitempty"`
	MaxA9           *int    `json:"max_a9,omitempty"`
	MaxK10          *int    `json:"max_k10,omitempty"`
	DVFS            bool    `json:"dvfs,omitempty"`
	PowerWatts      float64 `json:"power_watts,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	EnergyJoules    float64 `json:"energy_joules,omitempty"`
	// U > 0 annotates every frontier point with the P-th percentile
	// response time at that utilization under the selected kernel
	// (P defaults to 95 when omitted, the kernel triple to M/D/1).
	U       float64  `json:"u,omitempty"`
	P       *float64 `json:"p,omitempty"`
	Kernel  string   `json:"kernel,omitempty"`
	SCV     float64  `json:"scv,omitempty"`
	Servers int      `json:"servers,omitempty"`
}

// FrontierBatchRequest is the POST /v1/frontier body.
type FrontierBatchRequest struct {
	Items []FrontierBatchItem `json:"items"`
	// plans holds every item resolved, by price: the weigher charges
	// their spaces and the handler runs them.
	plans []frontierItem
}

// FrontierBatchResult is one item's outcome: exactly one of Result and
// Error is set.
type FrontierBatchResult struct {
	Item   int               `json:"item"`
	Result *FrontierResponse `json:"result,omitempty"`
	Error  *BatchItemError   `json:"error,omitempty"`
}

// FrontierBatchResponse is the POST /v1/frontier response body.
type FrontierBatchResponse struct {
	Count   int                   `json:"count"`
	Errors  int                   `json:"errors"`
	Results []FrontierBatchResult `json:"results"`
}

// frontierQuery decodes the GET query of /v1/frontier into a one-item
// batch. The annotation parameters p, kernel, scv and servers are read
// only with a nonzero u, the only case in which the resolver uses them.
func frontierQuery(q url.Values) (*FrontierBatchRequest, error) {
	it := FrontierBatchItem{Workload: q.Get("workload"), DVFS: q.Get("dvfs") == "true" || q.Get("dvfs") == "1"}
	a9, hasA9, err := queryInt(q, "max_a9")
	if err != nil {
		return nil, err
	}
	k10, hasK10, err := queryInt(q, "max_k10")
	if err != nil {
		return nil, err
	}
	if hasA9 {
		it.MaxA9 = &a9
	}
	if hasK10 {
		it.MaxK10 = &k10
	}
	if it.PowerWatts, err = queryFloat(q, "power", false); err != nil {
		return nil, err
	}
	if raw := q.Get("deadline"); raw != "" {
		if it.DeadlineSeconds, err = parseDurationOrSeconds(raw); err != nil {
			return nil, fmt.Errorf("invalid deadline %q: %v", raw, err)
		}
	}
	if it.EnergyJoules, err = queryFloat(q, "energy", false); err != nil {
		return nil, err
	}
	if it.U, err = queryFloat(q, "u", false); err != nil {
		return nil, err
	}
	if it.U != 0 {
		if q.Get("p") != "" {
			p, err := queryFloat(q, "p", false)
			if err != nil {
				return nil, err
			}
			it.P = &p
		}
		it.Kernel = q.Get("kernel")
		if it.SCV, err = queryFloat(q, "scv", false); err != nil {
			return nil, err
		}
		if it.Servers, _, err = queryInt(q, "servers"); err != nil {
			return nil, err
		}
	}
	return &FrontierBatchRequest{Items: []FrontierBatchItem{it}}, nil
}

// frontierUnits converts a configuration-space size into admission
// units.
func frontierUnits(space int) int64 {
	return int64(max(1, (space+frontierAdmissionUnit-1)/frontierAdmissionUnit))
}

// price resolves every item and charges the sum of their sweep costs:
// one unit per frontierAdmissionUnit configurations of the item's
// space, one unit for an item that fails to resolve (it fails per-item
// in the handler).
func (req *FrontierBatchRequest) price(s *Server) (int64, error) {
	if err := checkItems(len(req.Items)); err != nil {
		return 0, err
	}
	req.plans = make([]frontierItem, len(req.Items))
	var weight int64
	for i := range req.Items {
		req.plans[i] = s.resolveFrontier(&req.Items[i])
		weight += frontierUnits(req.plans[i].space)
	}
	return weight, nil
}

// frontierItem is one /v1/frontier item after resolution: the canonical
// sweep parameters and the sweep plan — or the error that fails the
// item.
type frontierItem struct {
	workload string
	powerW   float64
	deadline float64
	energy   float64
	// u > 0 enables the tail-latency annotation: every frontier point
	// gains the pct-th percentile response time at utilization u under
	// the spec kernel.
	u, pct float64
	spec   queueing.Spec

	limits []cluster.Limit
	space  int // 0 unless the item resolved
	err    error
}

// resolveFrontier is the per-item resolver of /v1/frontier: defaults,
// range checks, and the sweep plan under the per-request
// configuration-space cap.
func (s *Server) resolveFrontier(it *FrontierBatchItem) frontierItem {
	fi := frontierItem{workload: cmp.Or(it.Workload, "EP"),
		powerW: it.PowerWatts, deadline: it.DeadlineSeconds, energy: it.EnergyJoules}
	fi.err = s.planFrontier(&fi, it)
	return fi
}

// planFrontier range-checks the counts and annotation fields of it and
// the deadline of fi, then fills in fi's annotation and sweep plan.
func (s *Server) planFrontier(fi *frontierItem, it *FrontierBatchItem) error {
	maxA9, maxK10 := 32, 12
	if it.MaxA9 != nil {
		maxA9 = *it.MaxA9
	}
	if it.MaxK10 != nil {
		maxK10 = *it.MaxK10
	}
	// Node counts are bounded before they multiply into
	// cluster.SpaceSize: a count above the space cap already implies a
	// space above it, and the bound keeps the product far from overflow.
	for _, c := range []struct {
		name string
		n    int
	}{{"max_a9", maxA9}, {"max_k10", maxK10}} {
		if c.n < 0 || c.n > maxFrontierConfigs {
			return fmt.Errorf("invalid %s=%d: want a non-negative integer at most %d", c.name, c.n, maxFrontierConfigs)
		}
	}
	if fi.deadline < 0 {
		return fmt.Errorf("invalid deadline %gs: must be non-negative", fi.deadline)
	}
	if it.U != 0 {
		if it.U < 0 || it.U >= 1 {
			return fmt.Errorf("utilization u=%g outside (0, 1)", it.U)
		}
		fi.u, fi.pct = it.U, 95
		if it.P != nil {
			if err := checkPercentile(*it.P); err != nil {
				return err
			}
			fi.pct = *it.P
		}
		var err error
		if fi.spec, err = kernelSpecFrom(it.Kernel, it.SCV, it.Servers); err != nil {
			return err
		}
	}
	if _, err := s.cfg.Workloads.Lookup(fi.workload); err != nil {
		return &statusError{http.StatusNotFound, err}
	}
	a9, err := s.cfg.Catalog.Lookup("A9")
	if err != nil {
		return &statusError{http.StatusNotFound, err}
	}
	k10, err := s.cfg.Catalog.Lookup("K10")
	if err != nil {
		return &statusError{http.StatusNotFound, err}
	}
	fi.limits = []cluster.Limit{
		{Type: a9, MaxNodes: maxA9, FixCoresAndFreq: !it.DVFS},
		{Type: k10, MaxNodes: maxK10, FixCoresAndFreq: !it.DVFS},
	}
	space := cluster.SpaceSize(fi.limits)
	if space > maxFrontierConfigs {
		return fmt.Errorf("configuration space %d exceeds the per-request cap %d; lower max_a9/max_k10 or disable dvfs",
			space, maxFrontierConfigs)
	}
	fi.space = space
	return nil
}

func (s *Server) weighFrontier(w http.ResponseWriter, r *http.Request) (int64, any, bool) {
	return weigh(s, w, r, frontierQuery)
}

// handleFrontier serves /v1/frontier: the energy-deadline Pareto
// frontier over the A9/K10 mix space, with optional power budget,
// deadline and energy-budget constraints and tail-latency annotation.
// Each sweep runs on its request's goroutine under the request
// deadline, a POST's one after another.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request, decoded any) {
	req := decoded.(*FrontierBatchRequest)
	if r.Method != http.MethodPost {
		v, err := s.sweepFrontier(r.Context(), &req.plans[0])
		s.answer(w, r, v, err)
		return
	}
	results := make([]FrontierBatchResult, len(req.plans))
	s.runBatch(w, r, len(results),
		func(ctx context.Context, i int) (err error) {
			results[i].Item = i
			results[i].Result, err = s.sweepFrontier(ctx, &req.plans[i])
			return err
		},
		func(i int, e *BatchItemError) { results[i].Error = e },
		func(errs int) any { return FrontierBatchResponse{Count: len(results), Errors: errs, Results: results} })
}
