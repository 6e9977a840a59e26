package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cli"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// api-mix is epserve's everyday traffic over a fixed working set that
// fits every cache: after the warm-up every percentile is a cache hit,
// so serve's own code (routing, middleware, admission, singleflight,
// JSON) does most of the timed work.
const (
	apiDistinct  = 4096    // distinct requests; the warm-up sends each once
	apiStream    = 1 << 16 // timed op i sends distinct[stream[i % apiStream]]
	apiGrid      = 256     // utilization grid points in [0.05, 0.95)
	apiMixesPerW = 24      // A9/K10 mixes per paper workload
	apiDs        = 8       // raw service times
	apiBatch     = 16      // items per POST batch
	apiRef       = "32xA9,12xK10"
)

var apiPercentiles = []float64{50, 95, 99}

type apiKind uint8

const (
	apiRaw   apiKind = iota // GET /v1/percentiles?d=  (~50%)
	apiModel                // GET /v1/percentiles?workload=&mix= (~20%)
	apiEpm                  // GET /v1/epmetrics?ref= (~15%)
	apiPost                 // POST /v1/percentiles, 16 items (~15%)
)

// apiItem is one evaluation: model mode (wl, mix) when d == 0, raw
// service time d otherwise.
type apiItem struct {
	wl, mix string
	d, u    float64
}

type apiReq struct {
	kind  apiKind
	p     float64
	items []apiItem
	req   request
}

func (q *apiReq) units() float64 { return float64(len(q.items)) }

type apiInputs struct {
	distinct []apiReq
	stream   []uint16
}

// genAPIMix generates api-mix's requests from seed alone.
func genAPIMix(seed uint64, nDistinct, nStream int) *apiInputs {
	rng := rand.New(rand.NewPCG(seed, 0xa91))
	grid := make([]float64, apiGrid)
	for i := range grid {
		grid[i] = 0.05 + 0.9*float64(i)/apiGrid
	}
	type wlMix struct{ wl, mix string }
	var mixes []wlMix
	for _, wl := range workload.PaperNames() {
		seen := make(map[string]bool)
		for len(seen) < apiMixesPerW {
			a9, k10 := 1+rng.IntN(32), rng.IntN(13)
			m := fmt.Sprintf("%dxA9", a9)
			if k10 > 0 {
				m += fmt.Sprintf(",%dxK10", k10)
			}
			if !seen[m] {
				seen[m] = true
				mixes = append(mixes, wlMix{wl, m})
			}
		}
	}
	ds := make([]float64, apiDs)
	for i := range ds {
		ds[i] = math.Pow(10, -3+3*rng.Float64()) // 1 ms .. 1 s
	}
	item := func(model bool) apiItem {
		it := apiItem{u: grid[rng.IntN(len(grid))]}
		if model {
			m := mixes[rng.IntN(len(mixes))]
			it.wl, it.mix = m.wl, m.mix
		} else {
			it.d = ds[rng.IntN(len(ds))]
		}
		return it
	}

	in := &apiInputs{distinct: make([]apiReq, nDistinct), stream: make([]uint16, nStream)}
	for i := range in.distinct {
		q := &in.distinct[i]
		q.p = apiPercentiles[rng.IntN(len(apiPercentiles))]
		x := rng.Float64()
		switch {
		case x < 0.50:
			q.kind = apiRaw
			q.items = []apiItem{item(false)}
		case x < 0.70:
			q.kind = apiModel
			q.items = []apiItem{item(true)}
		case x < 0.85:
			q.kind = apiEpm
			q.items = []apiItem{item(true)}
		default:
			q.kind = apiPost
			q.items = make([]apiItem, apiBatch)
			for j := range q.items {
				q.items[j] = item(rng.IntN(2) == 0)
			}
		}
		q.req = q.httpForm()
	}
	for i := range in.stream {
		in.stream[i] = uint16(rng.IntN(nDistinct))
	}
	return in
}

func (q *apiReq) httpForm() request {
	it := q.items[0]
	v := url.Values{}
	switch q.kind {
	case apiRaw:
		v.Set("u", fmtFloat(it.u))
		v.Set("p", fmtFloat(q.p))
		v.Set("d", fmtFloat(it.d))
		return newRequest("percentiles.GET", http.MethodGet, "/v1/percentiles?"+v.Encode(), nil)
	case apiModel:
		v.Set("workload", it.wl)
		v.Set("mix", it.mix)
		v.Set("u", fmtFloat(it.u))
		v.Set("p", fmtFloat(q.p))
		return newRequest("percentiles.GET", http.MethodGet, "/v1/percentiles?"+v.Encode(), nil)
	case apiEpm:
		v.Set("workload", it.wl)
		v.Set("mix", it.mix)
		v.Set("ref", apiRef)
		return newRequest("epmetrics.GET", http.MethodGet, "/v1/epmetrics?"+v.Encode(), nil)
	}
	body := serve.PercentilesBatchRequest{P: []float64{q.p}}
	for _, it := range q.items {
		body.Items = append(body.Items, serve.PercentilesBatchItem{
			Workload: it.wl, Mix: it.mix, D: it.d, U: []float64{it.u}})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain value types always marshal
	}
	return newRequest("percentiles.POST", http.MethodPost, "/v1/percentiles", raw)
}

type apiMix struct {
	e  *wenv
	in *apiInputs

	// serve mode
	h     http.Handler
	rec   *recorder
	seed  maphash.Seed
	warm  []uint64 // answer hash per distinct request
	warmB [][]byte // answers kept until checkWarmup

	// direct mode, and the warm-up oracle
	d *apiDirect
}

func newAPIMix(e *wenv, in *apiInputs) *apiMix {
	return &apiMix{e: e, in: in, rec: newRecorder(), seed: maphash.MakeSeed()}
}

func (a *apiMix) setup() error {
	if a.e.mode == directMode {
		// The direct pass fills its own analysis memo, as the server's
		// warm-up fills its analysis cache.
		a.d = newAPIDirect(a.e.tr)
		for i := range a.in.distinct {
			if _, err := a.d.answer(&a.in.distinct[i]); err != nil {
				return err
			}
		}
		return nil
	}
	h, err := newServer(a.e.tr)
	if err != nil {
		return err
	}
	a.h = h
	a.warm = make([]uint64, len(a.in.distinct))
	a.warmB = make([][]byte, len(a.in.distinct))
	for i := range a.in.distinct {
		q := &a.in.distinct[i]
		call(a.e.tr, a.h, a.rec, &q.req)
		a.warm[i] = maphash.Bytes(a.seed, a.rec.body.Bytes())
		if a.rec.status == http.StatusOK && a.rec.batchErrors() == 0 {
			a.warmB[i] = append([]byte(nil), a.rec.body.Bytes()...)
		}
	}
	return nil
}

// checkWarmup compares every warm-up answer with the direct queueing
// and energyprop results for the same request, within 1e-9 relative.
func (a *apiMix) checkWarmup() (int, int, string) {
	if a.e.mode == directMode {
		return 0, 0, ""
	}
	d := newAPIDirect(nil)
	var ck tally
	for i := range a.in.distinct {
		ck.add(a.in.distinct[i].req.url.String(), d.check(&a.in.distinct[i], a.warmB[i]))
	}
	a.warmB = nil
	return ck.result()
}

func (a *apiMix) op(i int) opResult {
	k := int(a.in.stream[i%len(a.in.stream)])
	q := &a.in.distinct[k]
	if a.e.mode == directMode {
		t0 := time.Now()
		v, err := a.d.answer(q)
		res := opResult{units: q.units(), latency: time.Since(t0), key: k, ok: err == nil}
		if err != nil {
			res.reason = err.Error()
			return res
		}
		res.direct, res.tol = v, relTol(1e-9)
		return res
	}
	dur := call(a.e.tr, a.h, a.rec, &q.req)
	res := httpResult(a.rec, &q.req, dur, k, q.units())
	if res.ok && maphash.Bytes(a.seed, res.body) != a.warm[k] {
		res.ok = false
		res.reason = fmt.Sprintf("%s: answer differs from the warm-up answer", q.req.url)
	}
	return res
}

func (a *apiMix) report(extra map[string]float64) {
	if a.d != nil {
		extra["energyprop.analyze_ms"] = median(a.d.analyzeM)
		extra["queueing.solve_us"] = solveProbe(a.e.seed, 0.05, 0.95)
	}
}

// apiDirect computes api-mix answers through queueing and energyprop
// directly, memoizing analyses per (workload, mix) as the server does.
type apiDirect struct {
	tr       *tracer
	catalog  *hardware.Catalog
	registry *workload.Registry
	memo     map[string]*energyprop.Analysis
	analyzeM []float64
}

func newAPIDirect(tr *tracer) *apiDirect {
	c, r := paperEnv()
	return &apiDirect{tr: tr, catalog: c, registry: r, memo: make(map[string]*energyprop.Analysis)}
}

func (d *apiDirect) analysis(wl, mix string) (*energyprop.Analysis, error) {
	key := wl + "|" + mix
	if a, ok := d.memo[key]; ok {
		return a, nil
	}
	p, err := d.registry.Lookup(wl)
	if err != nil {
		return nil, err
	}
	cfg, err := cli.ParseMix(d.catalog, mix, 0, 0)
	if err != nil {
		return nil, err
	}
	id := d.tr.begin("energyprop.Analyze")
	t0 := time.Now()
	a, err := energyprop.Analyze(cfg, p, model.Options{}, 200)
	d.analyzeM = append(d.analyzeM, msSince(t0))
	d.tr.end(id)
	if err != nil {
		return nil, err
	}
	d.memo[key] = a
	return a, nil
}

func (d *apiDirect) percentiles(it apiItem, p float64) (*serve.PercentilesResponse, error) {
	D := it.d
	if D == 0 {
		a, err := d.analysis(it.wl, it.mix)
		if err != nil {
			return nil, err
		}
		D = float64(a.Result.Time)
	}
	id := d.tr.begin("queueing.Percentiles")
	defer d.tr.end(id)
	q, err := queueing.Spec{}.Build(it.u, D)
	if err != nil {
		return nil, err
	}
	ps, ctx := []float64{p}, context.Background()
	waits, err := q.WaitPercentilesContext(ctx, ps)
	if err != nil {
		return nil, err
	}
	resps, err := q.ResponsePercentilesContext(ctx, ps)
	if err != nil {
		return nil, err
	}
	return &serve.PercentilesResponse{
		Workload: it.wl, Mix: it.mix,
		Utilization: it.u, ServiceTimeSeconds: D, ArrivalRatePerSecond: it.u / D,
		MeanWaitSeconds: q.MeanWait(), MeanResponseSeconds: q.MeanResponse(),
		Percentiles: []serve.PercentilePoint{{P: p, WaitSeconds: waits[0], ResponseSeconds: resps[0]}},
	}, nil
}

func (d *apiDirect) epmetrics(it apiItem) (*serve.EPMetricsResponse, error) {
	a, err := d.analysis(it.wl, it.mix)
	if err != nil {
		return nil, err
	}
	refA, err := d.analysis(it.wl, apiRef)
	if err != nil {
		return nil, err
	}
	id := d.tr.begin("energyprop.Metrics")
	defer d.tr.end(id)
	m := a.Metrics()
	ref := energyprop.Reference{PeakPower: float64(refA.Result.BusyPower)}
	block := &serve.ReferenceBlock{Mix: apiRef, PeakWatts: ref.PeakPower}
	lo, hi, sub := ref.SublinearRange(a.CurveRes, stats.Linspace(0.05, 1, 96))
	block.Sublinear = sub
	if sub {
		block.SublinearFromU, block.SublinearToU = lo, hi
	}
	return &serve.EPMetricsResponse{
		Workload: it.wl, Mix: it.mix,
		TimeSeconds:         float64(a.Result.Time),
		EnergyJoules:        float64(a.Result.Energy),
		IdleWatts:           float64(a.Result.IdlePower),
		PeakWatts:           float64(a.Result.BusyPower),
		ThroughputPerSecond: float64(a.Result.Throughput),
		Metrics:             serve.MetricsBlock{DPR: m.DPR, IPR: m.IPR, EPM: m.EPM, LDR: m.LDR, ChordLDR: m.ChordLDR},
		Reference:           block,
	}, nil
}

// answer computes the response body value for q.
func (d *apiDirect) answer(q *apiReq) (any, error) {
	switch q.kind {
	case apiRaw, apiModel:
		return d.percentiles(q.items[0], q.p)
	case apiEpm:
		return d.epmetrics(q.items[0])
	}
	out := serve.PercentilesBatchResponse{Count: len(q.items)}
	for i, it := range q.items {
		r, err := d.percentiles(it, q.p)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, serve.PercentilesBatchResult{Item: i, U: it.u, Result: r})
	}
	return out, nil
}

// check compares a served answer with the direct computation, and each
// served percentile with the uncached M/D/1 CDF.
func (d *apiDirect) check(q *apiReq, body []byte) error {
	if body == nil {
		return fmt.Errorf("no successful answer")
	}
	v, err := d.answer(q)
	if err != nil {
		return err
	}
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := jsonClose(body, want, relTol(1e-9)); err != nil {
		return err
	}
	switch q.kind {
	case apiRaw, apiModel:
		var r serve.PercentilesResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return checkQuantiles(&r)
	case apiPost:
		var r serve.PercentilesBatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		for _, it := range r.Results {
			if it.Result == nil {
				return fmt.Errorf("batch item %d: no result", it.Item)
			}
			if err := checkQuantiles(it.Result); err != nil {
				return fmt.Errorf("batch item %d: %w", it.Item, err)
			}
		}
	}
	return nil
}

// checkQuantiles checks served percentiles against the M/D/1 wait CDF,
// which no cache stands in front of, so that a wrong solve or a wrong
// cache entry is caught even though the direct computation reads the
// same process-wide percentile cache the server filled. Each wait w
// must satisfy F(w) = p/100 within 1e-9, or be 0 where the atom
// F(0) = 1-rho already covers p/100; each response must be w + D.
func checkQuantiles(r *serve.PercentilesResponse) error {
	D := r.ServiceTimeSeconds
	q := queueing.MD1{Lambda: r.Utilization / D, D: D}
	for _, pt := range r.Percentiles {
		target, w := pt.P/100, pt.WaitSeconds
		f := q.WaitCDF(w)
		if w == 0 && f < target-1e-9 || w != 0 && math.Abs(f-target) > 1e-9 {
			return fmt.Errorf("u=%g D=%g: p%g wait %g has CDF %.12g", r.Utilization, D, pt.P, w, f)
		}
		if math.Abs(pt.ResponseSeconds-(w+D)) > 1e-9*(w+D) {
			return fmt.Errorf("u=%g D=%g: p%g response %g, want wait + D = %g", r.Utilization, D, pt.P, pt.ResponseSeconds, w+D)
		}
	}
	return nil
}
