package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/loadtrace"
	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/serve"
)

// replay-diurnal replays a day at 5-minute steps through the 1 kW
// budget ladder with adaptive provisioning. Each request's mean load is
// fresh, so it misses the percentile cache hundreds of times, and the
// stream overflows the cache, so full resets are part of steady state.
const (
	replayStream    = 1 << 12
	replayWarm      = 64 // about one percentile-cache generation
	replaySteps     = 288
	replayStepS     = 300
	replayAmplitude = 0.2
	replaySLO       = 0.05
	replaySLOPct    = 95
	replayHyst      = 0.05
	// Every replayRecheckEvery-th of the first timed ops keeps its
	// summary, replayRecheck in all, for checkTimed to recompute.
	replayRecheck      = 4
	replayRecheckEvery = 16
)

type replayReq struct {
	mean float64
	req  request
}

type replayInputs struct {
	warm, stream []replayReq
}

func genReplay(seed uint64, n int) *replayInputs {
	rng := rand.New(rand.NewPCG(seed, 0x4e9))
	mk := func() replayReq {
		// The paper's ~30% band: diurnal peaks near 0.75 cost ~10x per
		// step and stretch p99 to 8x p50.
		q := replayReq{mean: 0.25 + 0.1*rng.Float64()}
		body, err := json.Marshal(serve.ReplayRequest{
			Budget: true, Adaptive: true, Hysteresis: replayHyst,
			SLOSeconds: replaySLO, SLOPercentile: replaySLOPct, SummaryOnly: true,
			Shape: &serve.ReplayShape{Kind: "diurnal", Mean: q.mean, Amplitude: replayAmplitude,
				StepSeconds: replayStepS, Steps: replaySteps},
		})
		if err != nil {
			panic(err) // plain value types always marshal
		}
		q.req = newRequest("replay.POST", http.MethodPost, "/v1/replay", body)
		return q
	}
	in := &replayInputs{warm: make([]replayReq, replayWarm), stream: make([]replayReq, n)}
	for i := range in.warm {
		in.warm[i] = mk()
	}
	for i := range in.stream {
		in.stream[i] = mk()
	}
	return in
}

type replayWL struct {
	e    *wenv
	in   *replayInputs
	h    http.Handler
	rec  *recorder
	ck   tally
	kept []keptSummary

	// direct mode
	cands               []*energyprop.Analysis
	runMS, switches     []float64
	decisions, analyzeM []float64
}

func newReplay(e *wenv, in *replayInputs) *replayWL {
	return &replayWL{e: e, in: in, rec: newRecorder()}
}

func (r *replayWL) setup() error {
	if r.e.mode == directMode {
		return r.directSetup()
	}
	h, err := newServer(r.e.tr)
	if err != nil {
		return err
	}
	r.h = h
	for i := range r.in.warm {
		call(r.e.tr, r.h, r.rec, &r.in.warm[i].req)
		_, err := replaySummary(r.rec)
		r.ck.add(fmt.Sprintf("replay mean %g", r.in.warm[i].mean), err)
	}
	return nil
}

func (r *replayWL) checkWarmup() (int, int, string) { return r.ck.result() }

// replaySummary is replay-diurnal's served-answer oracle: a 200, no
// error frame, and exactly one summary line covering all 288 steps. It
// returns the summary object.
func replaySummary(rec *recorder) ([]byte, error) {
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", rec.status, rec.body.String())
	}
	var summary []byte
	sc := bufio.NewScanner(bytes.NewReader(rec.body.Bytes()))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Summary json.RawMessage `json:"summary"`
			Error   json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad frame: %w", err)
		}
		switch {
		case line.Error != nil:
			return nil, fmt.Errorf("error frame: %s", line.Error)
		case line.Summary == nil:
			return nil, fmt.Errorf("unexpected frame %.100s", sc.Text())
		case summary != nil:
			return nil, fmt.Errorf("second summary line")
		}
		summary = line.Summary
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if summary == nil {
		return nil, fmt.Errorf("no summary line")
	}
	var s struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(summary, &s); err != nil {
		return nil, err
	}
	if s.Steps != replaySteps {
		return nil, fmt.Errorf("summary covers %d steps, want %d", s.Steps, replaySteps)
	}
	return summary, nil
}

// keptSummary is a served summary kept for checkTimed.
type keptSummary struct {
	q       *replayReq
	summary []byte
}

func (r *replayWL) op(i int) opResult {
	q := &r.in.stream[i%len(r.in.stream)]
	if r.e.mode == directMode {
		return r.directOp(i, q)
	}
	dur := call(r.e.tr, r.h, r.rec, &q.req)
	res := httpResult(r.rec, &q.req, dur, i, replaySteps)
	if res.ok {
		sum, err := replaySummary(r.rec)
		if err != nil {
			res.ok, res.reason = false, fmt.Sprintf("replay mean %g: %v", q.mean, err)
		}
		res.body = sum
		if res.ok && i%replayRecheckEvery == 0 && len(r.kept) < replayRecheck {
			r.kept = append(r.kept, keptSummary{q, bytes.Clone(sum)})
		}
	}
	return res
}

// checkTimed recomputes some served summaries of the timed phase with a
// direct replay.Run once its clocks have stopped; they must agree within
// 1e-9 relative. By then the stream has reset the percentile cache, so
// the direct run fills entries afresh that the served run read.
func (r *replayWL) checkTimed() (int, int, string) {
	var ck tally
	if len(r.kept) == 0 {
		return 0, 0, ""
	}
	if err := r.directSetup(); err != nil {
		ck.add("direct replay set-up", err)
		return ck.result()
	}
	for _, k := range r.kept {
		out, err := r.direct(k.q)
		if err == nil {
			var want []byte
			if want, err = json.Marshal(out.Summary); err == nil {
				err = jsonClose(k.summary, want, relTol(1e-9))
			}
		}
		ck.add(fmt.Sprintf("replay mean %g against direct replay.Run", k.q.mean), err)
	}
	return ck.result()
}

// directSetup resolves the 1 kW budget ladder into analyses exactly as
// the server resolves budget=true.
func (r *replayWL) directSetup() error {
	catalog, registry := paperEnv()
	spec, err := cluster.DefaultBudget(catalog)
	if err != nil {
		return err
	}
	ladder, err := spec.Ladder()
	if err != nil {
		return err
	}
	wl, err := registry.Lookup("EP")
	if err != nil {
		return err
	}
	for _, m := range ladder {
		var parts []string
		if m.Wimpy > 0 {
			parts = append(parts, fmt.Sprintf("%dx%s", m.Wimpy, spec.Wimpy.Name))
		}
		if m.Brawny > 0 {
			parts = append(parts, fmt.Sprintf("%dx%s", m.Brawny, spec.Brawny.Name))
		}
		cfg, err := cli.ParseMix(catalog, strings.Join(parts, ","), 0, 0)
		if err != nil {
			return err
		}
		id := r.e.tr.begin("energyprop.Analyze")
		t0 := time.Now()
		a, err := energyprop.Analyze(cfg, wl, model.Options{}, 200)
		r.analyzeM = append(r.analyzeM, msSince(t0))
		r.e.tr.end(id)
		if err != nil {
			return err
		}
		r.cands = append(r.cands, a)
	}
	return nil
}

// direct runs q through replay.Run over the ladder directSetup built,
// with the options the server derives from the request.
func (r *replayWL) direct(q *replayReq) (*replay.Result, error) {
	tr, err := replay.FromShape(loadtrace.Diurnal{Mean: q.mean, Amplitude: replayAmplitude,
		Period: replaySteps * replayStepS}, replayStepS, replaySteps)
	if err != nil {
		return nil, err
	}
	id := r.e.tr.begin("replay.Run")
	tr0 := time.Now()
	out, err := replay.Run(context.Background(), r.cands, tr, replay.Options{
		SLO: replaySLO, SLOPercentile: replaySLOPct, Adaptive: true,
		Policy:       adaptive.Policy{SLO: replaySLO, Percentile: replaySLOPct, Hysteresis: replayHyst},
		DiscardSteps: true,
	})
	r.runMS = append(r.runMS, msSince(tr0))
	r.e.tr.end(id)
	return out, err
}

func (r *replayWL) directOp(i int, q *replayReq) opResult {
	res := opResult{key: i}
	t0 := time.Now()
	out, err := r.direct(q)
	res.latency = time.Since(t0)
	if err != nil {
		res.reason = err.Error()
		return res
	}
	r.switches = append(r.switches, float64(out.Summary.Switches))
	// The adaptive stepper decides once per trace step.
	r.decisions = append(r.decisions, float64(out.Summary.Steps))
	res.ok, res.units = true, float64(out.Summary.Steps)
	res.direct, res.tol = out.Summary, relTol(1e-9)
	return res
}

func (r *replayWL) report(extra map[string]float64) {
	if r.e.mode != directMode {
		return
	}
	extra["replay.run_ms"] = median(r.runMS)
	extra["energyprop.analyze_ms"] = median(r.analyzeM)
	extra["adaptive.decisions_per_op"] = mean(r.decisions)
	extra["adaptive.switches_per_op"] = mean(r.switches)
	extra["queueing.solve_us"] = solveProbe(r.e.seed, 0.05, 0.9)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
