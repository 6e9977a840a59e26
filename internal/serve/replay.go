package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/loadtrace"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// maxReplaySteps caps the trace length a single /v1/replay request may
// replay (each step costs percentile solves).
const maxReplaySteps = 1 << 16

// maxReplayBody bounds a /v1/replay request body; a maximum-size
// explicit trace (maxReplaySteps points) fits comfortably.
const maxReplayBody = 64 << 20

// maxReplayMixes bounds the candidate ensemble of one replay request —
// every candidate costs a model evaluation up front and a queue build
// per adaptive step.
const maxReplayMixes = 32

// ReplayShape specifies a synthetic load shape for /v1/replay requests
// that do not carry an explicit trace. Kind selects the generator;
// generators read only their own parameters.
type ReplayShape struct {
	// Kind is "diurnal", "flashcrowd", "ramp" or "steps".
	Kind string `json:"kind"`

	// Diurnal: load = Mean + Amplitude*cos around a PeriodSeconds cycle
	// peaking at PeakAtSeconds.
	Mean          float64 `json:"mean,omitempty"`
	Amplitude     float64 `json:"amplitude,omitempty"`
	PeriodSeconds float64 `json:"period_seconds,omitempty"`
	PeakAtSeconds float64 `json:"peak_at_seconds,omitempty"`

	// Flash crowd: Base load surging to Peak at StartSeconds, decaying
	// with HalfLifeSeconds.
	Base            float64 `json:"base,omitempty"`
	Peak            float64 `json:"peak,omitempty"`
	StartSeconds    float64 `json:"start_seconds,omitempty"`
	HalfLifeSeconds float64 `json:"half_life_seconds,omitempty"`

	// Ramp: linear From -> To over the whole trace.
	From float64 `json:"from,omitempty"`
	To   float64 `json:"to,omitempty"`

	// Steps: Levels cycled with DwellSeconds each.
	Levels       []float64 `json:"levels,omitempty"`
	DwellSeconds float64   `json:"dwell_seconds,omitempty"`

	// StepSeconds and Steps control the sampling grid (required).
	StepSeconds float64 `json:"step_seconds"`
	Steps       int     `json:"steps"`
}

// shape builds the loadtrace generator, defaulting period/dwell off the
// sampled horizon so minimal requests are valid.
func (rs ReplayShape) shape() (loadtrace.Shape, error) {
	horizon := rs.StepSeconds * float64(rs.Steps)
	switch rs.Kind {
	case "diurnal":
		period := rs.PeriodSeconds
		if period <= 0 {
			period = horizon
		}
		return loadtrace.Diurnal{Mean: rs.Mean, Amplitude: rs.Amplitude, Period: period, PeakAt: rs.PeakAtSeconds}, nil
	case "flashcrowd":
		half := rs.HalfLifeSeconds
		if half <= 0 {
			half = horizon / 8
		}
		return loadtrace.FlashCrowd{Base: rs.Base, Peak: rs.Peak, Start: rs.StartSeconds, HalfLife: half}, nil
	case "ramp":
		return loadtrace.Ramp{From: rs.From, To: rs.To, Duration: horizon}, nil
	case "steps":
		if len(rs.Levels) == 0 {
			return nil, errors.New("steps shape needs levels")
		}
		dwell := rs.DwellSeconds
		if dwell <= 0 {
			dwell = horizon / float64(len(rs.Levels))
		}
		return loadtrace.Steps{Levels: rs.Levels, Dwell: dwell}, nil
	default:
		return nil, fmt.Errorf("unknown shape kind %q (want diurnal, flashcrowd, ramp or steps)", rs.Kind)
	}
}

// ReplayRequest is the POST /v1/replay request body. Exactly one of
// Trace and Shape supplies the utilization time series.
type ReplayRequest struct {
	// Workload names the profile (default "EP").
	Workload string `json:"workload,omitempty"`
	// Mixes is the candidate ensemble in COUNTxTYPE notation. Budget
	// replaces it with the paper's 1 kW substitution ladder.
	Mixes  []string `json:"mixes,omitempty"`
	Budget bool     `json:"budget,omitempty"`
	// Adaptive re-provisions between steps; Hysteresis damps switching.
	Adaptive   bool    `json:"adaptive,omitempty"`
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// SLOSeconds (at SLOPercentile, default 95) gates feasibility and
	// violation accounting; 0 disables.
	SLOSeconds    float64 `json:"slo_seconds,omitempty"`
	SLOPercentile float64 `json:"slo_percentile,omitempty"`
	// Percentiles are the response percentiles per step (default 95, 99).
	Percentiles []float64 `json:"percentiles,omitempty"`
	// SwitchEnergyJoules is charged per configuration switch.
	SwitchEnergyJoules float64 `json:"switch_energy_joules,omitempty"`
	// Trace is an explicit utilization time series; Shape a synthetic one.
	Trace *replay.Trace `json:"trace,omitempty"`
	Shape *ReplayShape  `json:"shape,omitempty"`
	// SummaryOnly suppresses the per-step stream, leaving one summary line.
	SummaryOnly bool `json:"summary_only,omitempty"`
}

// replayStepLine and replaySummaryLine are the NDJSON frames of the
// /v1/replay response stream: zero or more step lines followed by
// exactly one summary line, or an error line if the run dies mid-stream.
type replayStepLine struct {
	Step *replay.Step `json:"step"`
}

type replaySummaryLine struct {
	Summary *replay.Summary `json:"summary"`
}

type replayErrorLine struct {
	Error errorBody `json:"error"`
}

// handleReplay serves POST /v1/replay: a trace-driven replay streamed
// back as NDJSON. All validation happens before the first byte of the
// stream, so malformed requests get a proper HTTP error status;
// failures after streaming begins terminate the stream with an error
// line (the status is already on the wire).
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed", r.Method))
		return
	}
	var req ReplayRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxReplayBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("decoding request body: %v", err))
		return
	}

	tr, ok := s.replayTrace(w, req)
	if !ok {
		return
	}
	cands, ok := s.replayCandidates(w, req)
	if !ok {
		return
	}

	opt := replay.Options{
		Percentiles:   req.Percentiles,
		SLO:           req.SLOSeconds,
		SLOPercentile: req.SLOPercentile,
		Adaptive:      req.Adaptive,
		Policy: adaptive.Policy{
			SLO:        req.SLOSeconds,
			Percentile: req.SLOPercentile,
			Hysteresis: req.Hysteresis,
		},
		SwitchEnergy: req.SwitchEnergyJoules,
		DiscardSteps: true,
	}
	for _, p := range req.Percentiles {
		if p < 0 || p >= 100 {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("percentile %g outside [0, 100)", p))
			return
		}
	}

	// Validation is done: switch to the NDJSON stream. Every frame is
	// flushed so clients watch the replay progress step by step.
	flusher, _ := w.(http.Flusher)
	streaming := false
	enc := json.NewEncoder(w)
	emit := func(v any) error {
		if !streaming {
			streaming = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if !req.SummaryOnly {
		opt.OnStep = func(st replay.Step) error {
			return emit(replayStepLine{Step: &st})
		}
	}

	res, err := replay.Run(r.Context(), cands, tr, opt)
	if err != nil {
		if !streaming {
			s.writeFailure(w, r, err)
			return
		}
		// The 200 is on the wire; the error line is the only way to tell
		// the client the stream is dead rather than complete.
		code := "compute_failed"
		if r.Context().Err() != nil {
			code = "deadline_exceeded"
			s.ins.deadlineExceeded.Inc()
		}
		// The access log still shows status 200 (already sent); the
		// outcome field is where the truncation becomes visible.
		telemetry.RequestFrom(r.Context()).SetOutcome("stream_" + code)
		emit(replayErrorLine{Error: errorBody{Code: code, Message: err.Error()}}) //nolint:errcheck // client gone
		return
	}
	if err := emit(replaySummaryLine{Summary: &res.Summary}); err != nil {
		return
	}
}

// replayTrace resolves the request's utilization series: the explicit
// trace or the sampled shape, validated and bounded by maxReplaySteps.
func (s *Server) replayTrace(w http.ResponseWriter, req ReplayRequest) (replay.Trace, bool) {
	var tr replay.Trace
	switch {
	case req.Trace != nil && req.Shape != nil:
		writeError(w, http.StatusBadRequest, "bad_request",
			"pass either trace (explicit points) or shape (synthetic), not both")
		return tr, false
	case req.Trace != nil:
		tr = *req.Trace
		if err := tr.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return tr, false
		}
	case req.Shape != nil:
		if req.Shape.Steps > maxReplaySteps {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("shape steps %d exceeds the per-request cap %d", req.Shape.Steps, maxReplaySteps))
			return tr, false
		}
		shape, err := req.Shape.shape()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return tr, false
		}
		tr, err = replay.FromShape(shape, req.Shape.StepSeconds, req.Shape.Steps)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return tr, false
		}
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			"missing trace (explicit points) or shape (synthetic)")
		return tr, false
	}
	if n := tr.Steps(); n > maxReplaySteps {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("trace steps %d exceeds the per-request cap %d", n, maxReplaySteps))
		return tr, false
	}
	return tr, true
}

// replayCandidates resolves the candidate ensemble: the 1 kW budget
// ladder or the request's mixes, each through the analysis cache.
func (s *Server) replayCandidates(w http.ResponseWriter, req ReplayRequest) ([]*energyprop.Analysis, bool) {
	wlName := req.Workload
	if wlName == "" {
		wlName = "EP"
	}
	mixes := req.Mixes
	if req.Budget {
		if len(mixes) > 0 {
			writeError(w, http.StatusBadRequest, "bad_request",
				"pass either budget (the 1 kW ladder) or mixes, not both")
			return nil, false
		}
		spec, err := cluster.DefaultBudget(s.cfg.Catalog)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return nil, false
		}
		ladder, err := spec.Ladder()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return nil, false
		}
		for _, m := range ladder {
			var parts []string
			if m.Wimpy > 0 {
				parts = append(parts, fmt.Sprintf("%dx%s", m.Wimpy, spec.Wimpy.Name))
			}
			if m.Brawny > 0 {
				parts = append(parts, fmt.Sprintf("%dx%s", m.Brawny, spec.Brawny.Name))
			}
			mixes = append(mixes, strings.Join(parts, ","))
		}
	}
	if len(mixes) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			"missing candidate set: pass mixes or budget=true")
		return nil, false
	}
	if len(mixes) > maxReplayMixes {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("at most %d mixes per request, got %d", maxReplayMixes, len(mixes)))
		return nil, false
	}
	cands := make([]*energyprop.Analysis, 0, len(mixes))
	for _, mix := range mixes {
		a, err := s.analysisFor(wlName, mix)
		if err != nil {
			status, e := failure(err)
			writeError(w, status, e.Code, e.Message)
			return nil, false
		}
		cands = append(cands, a)
	}
	return cands, true
}
