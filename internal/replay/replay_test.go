package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/loadtrace"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ladderCandidates builds the paper's 1 kW-budget substitution ladder —
// (0,16), (32,12), (64,8), (96,4), (128,0) A9/K10 mixes — analyzed for
// the EP workload: the heterogeneous candidate set replays run against.
func ladderCandidates(t *testing.T) []*energyprop.Analysis {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.DefaultBudget(cat)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := spec.Ladder()
	if err != nil {
		t.Fatal(err)
	}
	var out []*energyprop.Analysis
	for _, m := range ladder {
		a, err := energyprop.Analyze(m.Config, p, model.Options{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	if len(out) < 2 {
		t.Fatalf("ladder produced %d candidates", len(out))
	}
	return out
}

// scalingMixes (A9, K10 counts) shed brawny nodes one or two at a time;
// wideMixes reach down to two K10s, so their smallest mix is cheaper at
// low load and saturates sooner.
var (
	scalingMixes = [][2]int{{32, 12}, {25, 10}, {25, 8}, {25, 7}, {25, 5}}
	wideMixes    = [][2]int{{32, 12}, {25, 8}, {25, 5}, {25, 2}}
)

// scalingCandidates builds an ensemble of *different-capacity* mixes
// (progressively fewer brawny nodes), the shape that gives the adaptive
// planner real crossover points: small mixes are cheaper at low load and
// saturate as it rises. The paper's fixed-budget ladder does not switch
// for the EP workload — its all-wimpy mix is both fastest and cheapest
// everywhere — so switch-churn tests use these sets instead.
func scalingCandidates(t *testing.T, mixes [][2]int) []*energyprop.Analysis {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	var out []*energyprop.Analysis
	for _, m := range mixes {
		groups := []cluster.Group{cluster.FullNodes(a9, m[0]), cluster.FullNodes(k10, m[1])}
		a, err := energyprop.Analyze(cluster.MustConfig(groups...), p, model.Options{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func diurnalTrace(t *testing.T, steps int) Trace {
	t.Helper()
	return shapeTrace(t, loadtrace.Diurnal{
		Mean: 0.35, Amplitude: 0.3, Period: 86400, PeakAt: 14 * 3600,
	}, steps)
}

// shapeTrace samples a shape over one day in the given number of steps.
func shapeTrace(t *testing.T, shape loadtrace.Shape, steps int) Trace {
	t.Helper()
	tr, err := FromShape(shape, 86400/float64(steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDiurnalReplayMatchesDirectQueueing is the acceptance check: a
// ≥288-step synthetic diurnal day replayed through the heterogeneous
// 1 kW-budget ladder must report per-step p95 (and p99) response times
// matching direct queueing calls at the step's utilization and the
// chosen candidate's service time to within 1e-9.
func TestDiurnalReplayMatchesDirectQueueing(t *testing.T) {
	cands := ladderCandidates(t)
	tr := diurnalTrace(t, 288)

	for _, adapt := range []bool{false, true} {
		name := "static"
		if adapt {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			res, err := Run(context.Background(), cands, tr, Options{
				Adaptive:    adapt,
				SLO:         0.5,
				Percentiles: []float64{95, 99},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Steps) != 288 {
				t.Fatalf("got %d steps, want 288", len(res.Steps))
			}
			for i, st := range res.Steps {
				if st.Chosen < 0 || st.Chosen >= len(cands) {
					t.Fatalf("step %d chose %d", i, st.Chosen)
				}
				d := float64(cands[st.Chosen].Result.Time)
				q, err := queueing.NewMD1FromUtilization(st.Utilization, d)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for k, p := range []float64{95, 99} {
					direct, err := q.ResponsePercentile(p)
					if err != nil {
						t.Fatalf("step %d p%g: %v", i, p, err)
					}
					if diff := math.Abs(st.ResponseSeconds[k] - direct); diff > 1e-9 {
						t.Fatalf("step %d (rho=%g, cand %d): replay p%g=%g vs direct %g, |diff|=%g > 1e-9",
							i, st.Utilization, st.Chosen, p, st.ResponseSeconds[k], direct, diff)
					}
				}
			}
			if res.Summary.Steps != 288 || res.Summary.DurationSeconds != 86400 {
				t.Fatalf("summary steps/duration = %d/%g", res.Summary.Steps, res.Summary.DurationSeconds)
			}
		})
	}
}

// TestStaticLedger pins the static-mode ledger arithmetic on a constant
// trace, where every aggregate has a closed form.
func TestStaticLedger(t *testing.T) {
	cands := ladderCandidates(t)
	const load, dwell = 0.4, 300.0
	tr := Trace{Name: "const", Points: []Point{
		{0, load}, {dwell, load}, {2 * dwell, load}, {3 * dwell, load},
	}}
	res, err := Run(context.Background(), cands, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary

	ref := 0
	for i, c := range cands {
		if c.Result.Time < cands[ref].Result.Time {
			ref = i
		}
	}
	power := cands[ref].PowerAt(load)
	dur := 4 * dwell
	if got, want := s.TotalEnergyJoules, power*dur; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("total energy %g, want %g", got, want)
	}
	refPeak := float64(cands[ref].Result.BusyPower)
	if got, want := s.IdealEnergyJoules, refPeak*load*dur; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ideal energy %g, want %g", got, want)
	}
	wantGap := (power*dur - refPeak*load*dur) / (refPeak * load * dur)
	if math.Abs(s.EnergyGap-wantGap) > 1e-12 {
		t.Fatalf("gap %g, want %g", s.EnergyGap, wantGap)
	}
	if math.Abs(s.MeanPowerWatts-power) > 1e-9*power {
		t.Fatalf("mean power %g, want %g", s.MeanPowerWatts, power)
	}
	if s.Switches != 0 || s.SLOViolations != 0 || s.SaturatedSteps != 0 {
		t.Fatalf("static constant run reported switches=%d violations=%d saturated=%d",
			s.Switches, s.SLOViolations, s.SaturatedSteps)
	}
	// Constant load: the per-percentile mean equals the max.
	for k := range s.Percentiles {
		if math.Abs(s.MaxResponseSeconds[k]-s.MeanResponseSeconds[k]) > 1e-12 {
			t.Fatalf("p%g max %g != mean %g on a constant trace",
				s.Percentiles[k], s.MaxResponseSeconds[k], s.MeanResponseSeconds[k])
		}
	}
}

// TestAdaptiveBeatsStaticOnDiurnal: re-provisioning through a trough-y
// diurnal day must not spend more energy than pinning the reference, and
// must switch configurations up as the load rises and back down as it
// falls. At the paper's ~30% mean load adaptation saves a large share of
// the reference's energy, and a flash crowd's surge and decay take the
// same round trip. Under an SLO that no mix holds at a 95% peak, the
// steps without a feasible mix count as violations.
func TestAdaptiveBeatsStaticOnDiurnal(t *testing.T) {
	for _, tc := range []struct {
		name           string
		mixes          [][2]int
		tr             Trace
		policy         adaptive.Policy
		minSaving      float64
		maxSaving      float64
		meanLoad       float64 // checked when nonzero
		wantViolations bool
	}{
		{name: "scaling", mixes: scalingMixes, tr: diurnalTrace(t, 288), maxSaving: 1},
		{name: "mean 0.3", mixes: wideMixes, meanLoad: 0.3, minSaving: 0.10, maxSaving: 0.70,
			tr: shapeTrace(t, loadtrace.Diurnal{Mean: 0.3, Amplitude: 0.25, Period: 86400, PeakAt: 14 * 3600}, 96)},
		{name: "flash crowd", mixes: wideMixes, maxSaving: 1,
			tr: shapeTrace(t, loadtrace.FlashCrowd{Base: 0.15, Peak: 0.85, Start: 6 * 3600, HalfLife: 3600}, 144)},
		{name: "tight SLO", mixes: wideMixes, maxSaving: 1, wantViolations: true,
			policy: adaptive.Policy{SLO: 0.05, MaxUtilization: 0.95},
			tr:     shapeTrace(t, loadtrace.Diurnal{Mean: 0.5, Amplitude: 0.45, Period: 86400, PeakAt: 12 * 3600}, 96)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cands := scalingCandidates(t, tc.mixes)
			static, err := Run(context.Background(), cands, tc.tr, Options{DiscardSteps: true})
			if err != nil {
				t.Fatal(err)
			}
			adapt, err := Run(context.Background(), cands, tc.tr, Options{Adaptive: true, Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			saving := 1 - adapt.Summary.TotalEnergyJoules/static.Summary.TotalEnergyJoules
			if saving < tc.minSaving || saving > tc.maxSaving {
				t.Fatalf("adaptive saving %.3f outside [%g, %g] (adaptive %g J, static %g J)", saving,
					tc.minSaving, tc.maxSaving, adapt.Summary.TotalEnergyJoules, static.Summary.TotalEnergyJoules)
			}
			if static.Summary.Switches != 0 {
				t.Fatalf("static replay reported %d switches", static.Summary.Switches)
			}
			if v := adapt.Summary.SLOViolations; (v > 0) != tc.wantViolations {
				t.Fatalf("%d SLO violations, want some: %v", v, tc.wantViolations)
			}
			if tc.meanLoad != 0 && math.Abs(adapt.Summary.MeanLoad-tc.meanLoad) > 0.02 {
				t.Fatalf("mean load %.3f, want ~%g", adapt.Summary.MeanLoad, tc.meanLoad)
			}
			// Some switch moves to a faster candidate and a later one
			// back to a slower candidate.
			up, upDown := false, false
			for i := 1; i < len(adapt.Steps); i++ {
				prev, st := adapt.Steps[i-1], adapt.Steps[i]
				if st.Switched != (st.Chosen != prev.Chosen) {
					t.Fatalf("step %d: switched=%v, chosen %d after %d", i, st.Switched, st.Chosen, prev.Chosen)
				}
				if st.Switched {
					faster := cands[st.Chosen].Result.Time < cands[prev.Chosen].Result.Time
					up = up || faster
					upDown = upDown || (up && !faster)
				}
			}
			if !upDown {
				t.Fatalf("no switch up then back down over %d switches", adapt.Summary.Switches)
			}
		})
	}
}

// TestSwitchEnergyCharged: the per-switch energy surcharge lands in the
// ledger exactly switches * SwitchEnergy above the free-switching run,
// and Summary.Switches is the number of steps marked Switched, which the
// replay.switches counter also counts. On the alternating trace every
// 0.99 hour has no feasible mix, so the reference serves it as the
// fallback, and only the moves into and out of that fallback switch.
func TestSwitchEnergyCharged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mixes [][2]int
		tr    Trace
	}{
		{"diurnal", scalingMixes, diurnalTrace(t, 96)},
		{"fallback", wideMixes, shapeTrace(t, loadtrace.Steps{Levels: []float64{0.15, 0.99}, Dwell: 3600}, 96)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			telemetry.SetGlobal(reg)
			defer telemetry.SetGlobal(nil)
			cands := scalingCandidates(t, tc.mixes)

			free, err := Run(context.Background(), cands, tc.tr, Options{Adaptive: true})
			if err != nil {
				t.Fatal(err)
			}
			switched := 0
			for _, st := range free.Steps {
				if st.Switched {
					switched++
				}
			}
			if switched == 0 {
				t.Fatal("no switches; cannot exercise switch energy")
			}
			if n := reg.Counter("replay.switches").Value(); free.Summary.Switches != switched || n != uint64(switched) {
				t.Fatalf("Summary.Switches %d, replay.switches %d, want the %d steps marked Switched",
					free.Summary.Switches, n, switched)
			}
			const perSwitch = 5000.0
			paid, err := Run(context.Background(), cands, tc.tr, Options{
				Adaptive: true, SwitchEnergy: perSwitch, DiscardSteps: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if paid.Summary.Switches != switched {
				t.Fatalf("switch count changed: %d vs %d", paid.Summary.Switches, switched)
			}
			wantSurcharge := float64(switched) * perSwitch
			if got := paid.Summary.SwitchEnergyJoules; got != wantSurcharge {
				t.Fatalf("switch energy %g, want %g", got, wantSurcharge)
			}
			diff := paid.Summary.TotalEnergyJoules - free.Summary.TotalEnergyJoules
			if math.Abs(diff-wantSurcharge) > 1e-6 {
				t.Fatalf("total energy surcharge %g, want %g", diff, wantSurcharge)
			}
		})
	}
}

// TestHysteresisSuppressesSwitches: a strong hysteresis band must cut
// switch churn versus the greedy planner on the same trace and report
// the held-back switches.
func TestHysteresisSuppressesSwitches(t *testing.T) {
	cands := scalingCandidates(t, scalingMixes)
	tr := diurnalTrace(t, 288)

	greedy, err := Run(context.Background(), cands, tr, Options{Adaptive: true, DiscardSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	damped, err := Run(context.Background(), cands, tr, Options{
		Adaptive:     true,
		Policy:       adaptive.Policy{Hysteresis: 0.5},
		DiscardSteps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if damped.Summary.Switches > greedy.Summary.Switches {
		t.Fatalf("hysteresis increased switches: %d > %d",
			damped.Summary.Switches, greedy.Summary.Switches)
	}
	if damped.Summary.SuppressedSwitches == 0 {
		t.Fatal("hysteresis 0.5 suppressed nothing on a diurnal day")
	}
}

// TestSaturationClampsAndViolates: loads past the utilization cap clamp
// the queue at the cap, mark the step saturated and count it against the
// SLO.
func TestSaturationClampsAndViolates(t *testing.T) {
	cands := ladderCandidates(t)
	tr := Trace{Points: []Point{{0, 1}, {300, 1}, {600, 0.3}}}
	// A NaN utilization cap is out of range like a zero one and falls
	// back to the 0.95 default.
	for _, maxU := range []float64{0, math.NaN()} {
		opt := Options{SLO: 10, Policy: adaptive.Policy{MaxUtilization: maxU}}
		res, err := Run(context.Background(), cands, tr, opt)
		if err != nil {
			t.Fatalf("cap %g: %v", maxU, err)
		}
		if res.Summary.SaturatedSteps != 2 {
			t.Fatalf("cap %g: saturated steps = %d, want 2", maxU, res.Summary.SaturatedSteps)
		}
		if res.Summary.SLOViolations < 2 {
			t.Fatalf("cap %g: SLO violations = %d, want >= 2", maxU, res.Summary.SLOViolations)
		}
		for i, st := range res.Steps[:2] {
			if !st.Saturated || !st.SLOViolated {
				t.Fatalf("cap %g: step %d: saturated=%v violated=%v", maxU, i, st.Saturated, st.SLOViolated)
			}
			if st.Utilization != 0.95 {
				t.Fatalf("cap %g: step %d utilization %g, want clamp at 0.95", maxU, i, st.Utilization)
			}
		}
		if res.Steps[2].Saturated {
			t.Fatalf("cap %g: in-range step marked saturated", maxU)
		}
	}
}

// TestOnStepStreaming: the step callback sees every step in trace order
// with the same values the result records, and DiscardSteps keeps the
// result lean.
func TestOnStepStreaming(t *testing.T) {
	cands := ladderCandidates(t)
	tr := diurnalTrace(t, 48)

	var streamed []Step
	res, err := Run(context.Background(), cands, tr, Options{
		Adaptive:     true,
		DiscardSteps: true,
		OnStep: func(st Step) error {
			streamed = append(streamed, st)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("DiscardSteps kept %d steps", len(res.Steps))
	}
	if len(streamed) != 48 {
		t.Fatalf("streamed %d steps, want 48", len(streamed))
	}
	for i, st := range streamed {
		if st.T != tr.Points[i].T || st.Load != tr.Points[i].Load {
			t.Fatalf("step %d out of order: t=%g load=%g", i, st.T, st.Load)
		}
	}

	wantErr := errors.New("consumer full")
	calls := 0
	_, err = Run(context.Background(), cands, tr, Options{
		OnStep: func(Step) error {
			calls++
			if calls == 3 {
				return wantErr
			}
			return nil
		},
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("OnStep error not propagated: %v", err)
	}
	if calls != 3 {
		t.Fatalf("OnStep called %d times after aborting at 3", calls)
	}
}

// TestRunCancellation: a run whose context is done does no work, and a
// run cancelled mid-trace stops before the next step: steps are
// decided, solved and emitted one at a time.
func TestRunCancellation(t *testing.T) {
	cands := ladderCandidates(t)
	tr := diurnalTrace(t, 288)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cands, tr, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := Run(ctx, cands, tr, Options{Adaptive: true, OnStep: func(Step) error {
		if emitted++; emitted == 6 {
			cancel()
		}
		return nil
	}})
	if !errors.Is(err, context.Canceled) || emitted != 6 {
		t.Fatalf("run cancelled after step 6: %d steps emitted, err %v", emitted, err)
	}
}

func TestRunValidation(t *testing.T) {
	cands := ladderCandidates(t)
	good := diurnalTrace(t, 4)
	if _, err := Run(context.Background(), nil, good, Options{}); err == nil {
		t.Fatal("no candidates accepted")
	}
	bad := Trace{Points: []Point{{0, 0.3}}}
	if _, err := Run(context.Background(), cands, bad, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
	if _, err := Run(context.Background(), cands, good, Options{Percentiles: []float64{100}}); err == nil {
		t.Fatal("percentile 100 accepted")
	}
	if _, err := Run(context.Background(), cands, good, Options{Percentiles: []float64{-1}}); err == nil {
		t.Fatal("negative percentile accepted")
	}
}

// TestSLOPercentileExtension: when the SLO percentile is not among the
// requested ones the engine evaluates it internally but must not leak it
// into the emitted percentile slices.
func TestSLOPercentileExtension(t *testing.T) {
	cands := ladderCandidates(t)
	tr := diurnalTrace(t, 8)
	res, err := Run(context.Background(), cands, tr, Options{
		Percentiles:   []float64{50},
		SLO:           1e-9, // unattainably tight: every step violates
		SLOPercentile: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Steps {
		if len(st.ResponseSeconds) != 1 {
			t.Fatalf("step %d leaked the SLO percentile: %v", i, st.ResponseSeconds)
		}
		if !st.SLOViolated {
			t.Fatalf("step %d not violated under a 1ns SLO", i)
		}
	}
	if res.Summary.SLOViolationFrac != 1 {
		t.Fatalf("violation frac %g, want 1", res.Summary.SLOViolationFrac)
	}
}

func TestSummaryRender(t *testing.T) {
	cands := ladderCandidates(t)
	tr := diurnalTrace(t, 8)
	res, err := Run(context.Background(), cands, tr, Options{Adaptive: true, SLO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Summary.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"adaptive", "total energy", "ideal-proportional", "p95 response", "p99 response"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered summary missing %q:\n%s", want, out)
		}
	}
}

// TestDiurnalReplaySolvesTwicePerStep: on the 1 kW budget ladder's
// diurnal replay under a p95 SLO, each step solves the chosen rung's
// p95 once, in the stepper, and its p99 once beside it. The step
// decision solves only down the power order to the first feasible rung,
// and the run takes the policy percentile from the decision.
func TestDiurnalReplaySolvesTwicePerStep(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)

	const steps = 288
	res, err := Run(context.Background(), ladderCandidates(t), diurnalTrace(t, steps), Options{
		Adaptive: true,
		SLO:      0.05,
		Policy:   adaptive.Policy{Hysteresis: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Steps != steps || res.Summary.SLOViolations == steps {
		t.Fatalf("summary %+v", res.Summary)
	}
	searches := reg.Counter("queueing.percentile_searches").Value()
	per := float64(searches) / steps
	if per > 2 {
		t.Fatalf("%d percentile searches over %d steps = %.3f per step, want <= 2", searches, steps, per)
	}
	t.Logf("%.3f percentile searches per step", per)
}

// TestReplayTimelineHoldsRun: a request-scoped replay records one phase,
// replay.run, however many steps it solves; per-step solves would fill
// the request's bounded timeline and drop the run phase itself. It
// leaves nothing on the process tracer, where an unscoped (CLI) run
// records exactly one replay.run span with its args.
func TestReplayTimelineHoldsRun(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	rc := telemetry.NewRequestContext("")
	ctx := telemetry.WithRequest(context.Background(), rc)
	for _, adapt := range []bool{false, true} {
		if _, err := Run(ctx, ladderCandidates(t), diurnalTrace(t, 288), Options{Adaptive: adapt, SLO: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, ev := range rc.Timeline() {
		names = append(names, ev.Name)
	}
	if got := strings.Join(names, " "); got != "replay.run replay.run" || rc.DroppedPhases() != 0 {
		if len(got) > 80 {
			got = got[:80] + "..."
		}
		t.Fatalf("timeline holds %d phases (%s), %d dropped; want two replay.run phases and none dropped",
			len(names), got, rc.DroppedPhases())
	}
	if n := reg.Tracer().Len(); n != 0 {
		t.Fatalf("request-scoped replays left %d spans on the process tracer, want 0", n)
	}

	if _, err := Run(context.Background(), ladderCandidates(t), diurnalTrace(t, 288), Options{Adaptive: true, SLO: 0.05}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "replay.run" ||
		events[0].Args["steps"] != float64(288) || events[0].Args["candidates"] != float64(5) || events[0].Args["adaptive"] != true {
		t.Fatalf("an unscoped 288-step run traced %s, want one replay.run span with its args", buf.String())
	}
}
