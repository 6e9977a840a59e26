package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/queueing"
	"repro/internal/serve"
	"repro/internal/workload"
)

// frontier-dvfs sweeps the paper's footnote-4 space (10 A9 x 10 K10 with
// DVFS: 36,380 configurations) with a tail-latency annotation at a fresh
// utilization per request, so every request is one cold solve and
// pareto/model/cluster do almost all of the work.
const (
	frontierStream = 1 << 14
	frontierWarm   = 4 // warm-up rounds over the six workloads
	frontierSpace  = 36380
	frontierMaxA9  = 10
	frontierMaxK10 = 10
	frontierPct    = 95
)

type frontierReq struct {
	wl  string
	u   float64
	req request
}

type frontierInputs struct {
	warm, stream []frontierReq
}

func genFrontier(seed uint64, n int) *frontierInputs {
	rng := rand.New(rand.NewPCG(seed, 0xf40))
	names := workload.PaperNames()
	order := rng.Perm(len(names))
	mk := func(i int) frontierReq {
		q := frontierReq{wl: names[order[i%len(names)]], u: 0.05 + 0.9*rng.Float64()}
		v := url.Values{}
		v.Set("workload", q.wl)
		v.Set("max_a9", fmt.Sprint(frontierMaxA9))
		v.Set("max_k10", fmt.Sprint(frontierMaxK10))
		v.Set("dvfs", "true")
		v.Set("u", fmtFloat(q.u))
		v.Set("p", fmt.Sprint(frontierPct))
		q.req = newRequest("frontier.GET", http.MethodGet, "/v1/frontier?"+v.Encode(), nil)
		return q
	}
	in := &frontierInputs{warm: make([]frontierReq, frontierWarm*len(names)), stream: make([]frontierReq, n)}
	for i := range in.warm {
		in.warm[i] = mk(i)
	}
	for i := range in.stream {
		in.stream[i] = mk(i)
	}
	return in
}

type frontier struct {
	e   *wenv
	in  *frontierInputs
	h   http.Handler
	rec *recorder
	d   *frontierDirect
	ck  tally
}

func newFrontier(e *wenv, in *frontierInputs) *frontier {
	return &frontier{e: e, in: in, rec: newRecorder()}
}

func (f *frontier) setup() error {
	if f.e.mode == directMode {
		f.d = newFrontierDirect(f.e)
		return f.d.setup()
	}
	h, err := newServer(f.e.tr)
	if err != nil {
		return err
	}
	f.h = h
	for i := range f.in.warm {
		call(f.e.tr, f.h, f.rec, &f.in.warm[i].req)
		f.ck.add(f.in.warm[i].req.url.String(), checkExplored(f.rec))
	}
	return nil
}

func (f *frontier) checkWarmup() (int, int, string) { return f.ck.result() }

// checkExplored is frontier-dvfs's served-answer oracle.
func checkExplored(rec *recorder) error {
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rec.status, rec.body.String())
	}
	var r struct {
		Explored int `json:"explored"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &r); err != nil {
		return err
	}
	if r.Explored != frontierSpace {
		return fmt.Errorf("explored %d configurations, want %d", r.Explored, frontierSpace)
	}
	return nil
}

func (f *frontier) op(i int) opResult {
	q := &f.in.stream[i%len(f.in.stream)]
	if f.e.mode == directMode {
		return f.d.op(i, q)
	}
	dur := call(f.e.tr, f.h, f.rec, &q.req)
	res := httpResult(f.rec, &q.req, dur, i, frontierSpace)
	if res.ok {
		if err := checkExplored(f.rec); err != nil {
			res.ok, res.reason = false, fmt.Sprintf("%s: %v", q.req.url, err)
		}
	}
	return res
}

// frontierDirect runs the server's sweep through pareto directly, and
// the probes behind the pareto.* and model.* per-layer metrics.
type frontierDirect struct {
	e        *wenv
	registry *workload.Registry
	limits   []cluster.Limit
	tables   map[string]*model.Table

	sweepMS, sweepCPU, serialMS, serialCPU, annotateMS []float64
	configs                                            []float64
	swept                                              []*workload.Profile
}

func newFrontierDirect(e *wenv) *frontierDirect {
	catalog, registry := paperEnv()
	a9, err := catalog.Lookup("A9")
	if err != nil {
		panic(err) // built-in catalog
	}
	k10, err := catalog.Lookup("K10")
	if err != nil {
		panic(err)
	}
	return &frontierDirect{
		e: e, registry: registry, tables: make(map[string]*model.Table),
		limits: []cluster.Limit{
			{Type: a9, MaxNodes: frontierMaxA9},
			{Type: k10, MaxNodes: frontierMaxK10},
		},
	}
}

// setup times table construction (model.table_ms), measures how much of
// the space library-default pruning would skip (pareto.prunable_share),
// and leaves one warm table per workload, as the server keeps.
func (d *frontierDirect) setup() error {
	var tableMS []float64
	var prunable float64
	names := workload.PaperNames()
	for _, name := range names {
		wl, err := d.registry.Lookup(name)
		if err != nil {
			return err
		}
		for range 3 {
			id := d.e.tr.begin("model.NewTable")
			t0 := time.Now()
			t := model.NewTable(wl, model.Options{})
			t.Snapshot(d.limits)
			tableMS = append(tableMS, msSince(t0))
			d.e.tr.end(id)
			d.tables[name] = t
		}
		var st pareto.SweepStats
		id := d.e.tr.begin("pareto.FrontierSweep")
		_, err = pareto.FrontierSweep(d.limits, wl, model.Options{}, pareto.SweepOptions{
			Table: d.tables[name], Stats: &st})
		d.e.tr.end(id)
		if err != nil {
			return err
		}
		prunable += float64(st.Pruned) / float64(cluster.SpaceSize(d.limits))
	}
	d.e.extra["model.table_ms"] = median(tableMS)
	d.e.extra["pareto.prunable_share"] = prunable / float64(len(names))
	return nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

func (d *frontierDirect) sweep(wl *workload.Profile, table *model.Table, workers int) ([]pareto.Point, pareto.SweepStats, float64, float64, error) {
	var st pareto.SweepStats
	t0, c0 := time.Now(), cpuSeconds()
	pts, err := pareto.FrontierSweep(d.limits, wl, model.Options{}, pareto.SweepOptions{
		Workers: workers, NoPrune: true, Table: table, Stats: &st})
	return pts, st, msSince(t0), (cpuSeconds() - c0) * 1e3, err
}

func (d *frontierDirect) op(i int, q *frontierReq) opResult {
	res := opResult{key: i}
	wl, err := d.registry.Lookup(q.wl)
	if err != nil {
		res.reason = err.Error()
		return res
	}
	table := d.tables[q.wl]
	t0 := time.Now()
	id := d.e.tr.begin("pareto.FrontierSweep")
	frontier, st, ms, cpu, err := d.sweep(wl, table, 0)
	d.e.tr.end(id)
	if err != nil {
		res.reason = err.Error()
		return res
	}
	id = d.e.tr.begin("pareto.AnnotateLatencies")
	ta := time.Now()
	lat, err := pareto.AnnotateLatencies(context.Background(), frontier, q.u, frontierPct, queueing.Spec{}, 0)
	annotate := msSince(ta)
	d.e.tr.end(id)
	if err != nil {
		res.reason = err.Error()
		return res
	}
	resp := serve.FrontierResponse{Workload: q.wl, Explored: cluster.SpaceSize(d.limits),
		Filtered: int(st.Filtered), Evaluated: int(st.Evaluated)}
	resp.Frontier = make([]serve.FrontierPoint, 0, len(frontier))
	latFor := make(map[string]float64, len(lat))
	for j, p := range frontier {
		fp := frontierPoint(p)
		fp.ResponseSeconds = lat[j]
		latFor[fp.Mix] = lat[j]
		resp.Frontier = append(resp.Frontier, fp)
	}
	if p, ok := pareto.MinEDP(frontier); ok {
		rec := frontierPoint(p)
		rec.ResponseSeconds = latFor[rec.Mix]
		resp.Recommended = &rec
	}
	res.latency = time.Since(t0)
	d.sweepMS = append(d.sweepMS, ms)
	d.sweepCPU = append(d.sweepCPU, cpu)
	d.annotateMS = append(d.annotateMS, annotate)
	d.configs = append(d.configs, float64(st.Evaluated+st.Skipped+st.Filtered+st.Pruned))
	d.swept = append(d.swept, wl)

	res.ok, res.units, res.direct = true, float64(resp.Explored), resp
	res.tol = func(key string) float64 {
		if key == "response_seconds" {
			return 1e-9 // percentile solves may bracket differently per process
		}
		return 0 // frontier points are bitwise
	}
	return res
}

// frontierSerialOps bounds the serial sweeps of the 1/2 ladder.
const frontierSerialOps = 256

func (f *frontier) report(extra map[string]float64) {
	if d := f.d; d != nil {
		// Item 1's 1/2 ladder: the first ops' sweeps again at Workers=1,
		// after the timed ops so that the default-width sweeps ran back
		// to back as they do in the server.
		for _, wl := range d.swept[:min(len(d.swept), frontierSerialOps)] {
			if _, _, ms, cpu, err := d.sweep(wl, d.tables[wl.Name], 1); err == nil {
				d.serialMS = append(d.serialMS, ms)
				d.serialCPU = append(d.serialCPU, cpu)
			}
		}
		extra["pareto.sweep_ms"] = median(d.sweepMS)
		extra["pareto.sweep_cpu_ms"] = median(d.sweepCPU)
		extra["pareto.sweep_ms.serial"] = median(d.serialMS)
		extra["pareto.sweep_cpu_ms.serial"] = median(d.serialCPU)
		extra["pareto.annotate_ms"] = median(d.annotateMS)
		extra["pareto.configs_per_op"] = median(d.configs)
		extra["queueing.solve_us"] = solveProbe(f.e.seed, 0.05, 0.95)
	}
}

func frontierPoint(p pareto.Point) serve.FrontierPoint {
	return serve.FrontierPoint{
		Mix:            p.Config.String(),
		TimeSeconds:    float64(p.Time),
		EnergyJoules:   float64(p.Energy),
		PeakWatts:      float64(p.Config.NominalPeak()),
		MeanPowerWatts: float64(p.Result.BusyPower),
	}
}
