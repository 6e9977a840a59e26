// Command perfbench is the repository's benchmark: four in-process
// workloads driven by one closed-loop client through the public entry
// points of serve, pareto, replay and fleet. See README.md in this
// directory for the workloads, the metrics and how to read them.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload api-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the gated end-to-end metrics; --trace 1 runs the
// traced passes and prints the per-layer metrics. The last line of
// standard output is one JSON object with the result.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

const (
	// defaultSeed is the workload seed when --seed is not given;
	// claimSeed is the second seed a performance claim must also hold
	// on (it is never used while a change is being written).
	defaultSeed = 1
	claimSeed   = 7919

	// latencyCap bounds the per-op latency samples a pass keeps.
	latencyCap = 1 << 18
	// traceOpsCap and traceSpansCap bound the traced handler pass, which
	// keeps every span and answer in memory, and whose program tracer
	// retains every span (~0.5 KiB each; a replay request emits ~1,730).
	traceOpsCap   = 1 << 15
	traceSpansCap = 50_000
	// buildDir holds everything a run writes inside the checkout.
	buildDir = ".bench_build"
)

// procs is how many fresh processes one --trace 0 run of each workload
// uses. Each set-up needs a cold process because the percentile cache
// is process-global.
var procs = map[string]int{
	"api-mix":        7,
	"frontier-dvfs":  5,
	"replay-diurnal": 7,
	fleetWorkload:    7,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	role     string
	ops      int
	answers  string
	spans    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "api-mix", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced passes and per-layer metrics")
	fs.StringVar(&o.role, "role", "", "internal: the pass a child process runs")
	fs.IntVar(&o.ops, "ops", 0, "internal: op count of the direct pass")
	fs.StringVar(&o.answers, "answers", "", "internal: handler answers file")
	fs.StringVar(&o.spans, "spans", "", "internal: span output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := procs[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var err error
	if o.role != "" {
		var res *childResult
		if res, err = runChild(o); err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
	} else {
		err = orchestrate(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// childResult is what one pass reports to the orchestrating process.
type childResult struct {
	Role      string             `json:"role"`
	Setup     phase              `json:"setup"`
	Timed     phase              `json:"timed"`
	Ops       int                `json:"ops"`
	Units     float64            `json:"units"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reason    string             `json:"reason,omitempty"`
	P50MS     float64            `json:"p50_ms"`
	LatMS     []float64          `json:"lat_ms,omitempty"`
	RSSMiB    float64            `json:"rss_peak_mib"`
	Mem       memDelta           `json:"mem"`
	RespBytes int64              `json:"resp_bytes"`
	Non2xx    int                `json:"non2xx"`
	BatchErrs int                `json:"batch_item_errors"`
	Counters  map[string]uint64  `json:"counters,omitempty"`
	Spans     int                `json:"program_spans,omitempty"`
	Retained  float64            `json:"retained_bytes,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// reporter is an optional workload hook that adds a direct pass's
// per-layer figures.
type reporter interface {
	report(extra map[string]float64)
}

// timedChecker is an optional workload hook that checks answers of the
// timed phase once every figure of the pass has been read.
type timedChecker interface {
	checkTimed() (attempted, failed int, reason string)
}

// runChild runs one pass in this process: set-up on the set-up clock,
// the warm-up oracles, then the timed ops.
func runChild(o options) (*childResult, error) {
	e := &wenv{seed: o.seed, extra: make(map[string]float64)}
	var reg *telemetry.Registry
	switch o.role {
	case "measure":
	case "handler":
		e.tr = newTracer()
		// The registry cmd/epserve installs, before the server exists.
		reg = telemetry.New()
		telemetry.SetGlobal(reg)
	case "direct":
		e.mode, e.tr = directMode, newTracer()
		if err := loadAnswers(o.answers, &e.answers); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown role %q", o.role)
	}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return nil, err
	}
	res := &childResult{Role: o.role}
	runtime.GC()
	c0 := now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	res.Setup = since(c0)
	res.Attempted, res.Failed, res.Reason = w.checkWarmup()

	lat := newLatencyStore(latencyCap, o.seed)
	answers := make(map[int]json.RawMessage)
	answerBytes := 0
	runtime.GC()
	m0 := markMem()
	var cnt0 map[string]uint64
	spans0 := reg.Tracer().Len()
	if reg != nil {
		cnt0 = reg.Snapshot().Counters
	}
	c1 := now()
	deadline := c1.wall.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if o.role == "direct" {
			if i >= o.ops {
				break
			}
		} else if !time.Now().Before(deadline) ||
			(o.role == "handler" && (i >= traceOpsCap || reg.Tracer().Len()-spans0 >= traceSpansCap)) {
			break
		}
		e.tr.setOp(i)
		id := e.tr.begin("op")
		r := w.op(i)
		e.tr.end(id)
		e.tr.setOp(-1)
		if r.ok && r.direct != nil {
			r.ok, r.reason = e.compareAnswer(r.key, r.direct, r.tol)
		}
		if !r.ok {
			r.units = 0 // a wrong answer is no work done
		}
		res.Ops++
		res.Attempted++
		if !r.ok {
			res.Failed++
			if res.Reason == "" {
				res.Reason = r.reason
			}
		}
		res.Units += r.units
		lat.add(float64(r.latency) / 1e6)
		res.RespBytes += int64(len(r.body))
		if r.non2xx {
			res.Non2xx++
		}
		res.BatchErrs += r.batchEr
		if o.role == "handler" && r.ok {
			if _, seen := answers[r.key]; !seen {
				answers[r.key] = bytes.Clone(r.body)
				answerBytes += len(r.body)
			}
		}
	}
	res.Timed = since(c1)
	if reg != nil {
		runtime.GC()
	}
	res.Mem = memSince(m0)
	res.P50MS = median(lat.ms)
	if o.role == "measure" {
		res.LatMS = lat.ms
	}
	if res.RSSMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	if reg != nil {
		res.Counters = make(map[string]uint64)
		for k, v := range reg.Snapshot().Counters {
			res.Counters[k] = v - cnt0[k]
		}
		res.Spans = reg.Tracer().Len() - spans0
		res.Retained = float64(int64(res.Mem.HeapB)-int64(m0.ms.HeapAlloc)) -
			float64(answerBytes) - float64(e.tr.sizeBytes())
	}
	if tc, ok := w.(timedChecker); ok {
		a, f, reason := tc.checkTimed()
		res.Attempted += a
		res.Failed += f
		if res.Reason == "" {
			res.Reason = reason
		}
	}
	if rp, ok := w.(reporter); ok {
		rp.report(e.extra)
	}
	res.Extra = e.extra
	if o.role == "handler" {
		if err := saveAnswers(o.answers, answers); err != nil {
			return nil, err
		}
	}
	if o.spans != "" {
		if err := e.tr.write(o.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func saveAnswers(path string, answers map[int]json.RawMessage) error {
	data, err := json.Marshal(answers)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadAnswers(path string, dst *map[int][]byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var raw map[int]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	*dst = make(map[int][]byte, len(raw))
	for k, v := range raw {
		(*dst)[k] = v
	}
	return nil
}

// spawn runs one pass in a fresh process of this binary and waits for
// it to end.
func spawn(o options, role string, extra ...string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--role", role, "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10), "--seconds", fmtFloat(o.seconds)}
	cmd := exec.Command(exe, append(args, extra...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", role, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s pass: bad report: %w", role, err)
	}
	return &res, nil
}

// metric is one named figure of the final result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is printed with every run, before the result line.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	ClaimSeed  uint64  `json:"claim_seed"`
	Seconds    float64 `json:"seconds"`
	Processes  int     `json:"processes"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstFail  string  `json:"first_failure,omitempty"`
	Ops        int     `json:"timed_ops"`
	StealShare float64 `json:"env.steal_share"`
	WallPerCPU float64 `json:"env.wall_per_cpu"`
	WallWorkPS float64 `json:"wall.work_per_s"`
	WallSetupS float64 `json:"wall.setup_s"`
	WallTail   *tail   `json:"wall.tail_ms"`
	// The per-process figures behind the medians.
	SetupS     []float64 `json:"setup_s_per_process"`
	WorkPerCPU []float64 `json:"work_per_cpu_s_per_process"`
	P50MS      []float64 `json:"p50_ms_per_process"`
	RSSMiB     []float64 `json:"rss_peak_mb_per_process"`
}

// orchestrate runs one --trace 0 run: procs[workload] fresh processes,
// each setting the workload up on the set-up clock and then measuring
// its share of --seconds. Every gated metric is the median over the
// processes, which damps the per-process regimes (thread placement,
// GC pacing, host contention) that dominate the spread between runs.
func orchestrate(o options, stdout io.Writer) error {
	if o.trace == 1 {
		return orchestrateTrace(o, stdout)
	}
	share := o
	share.seconds = o.seconds / float64(procs[o.workload])
	var runs []*childResult
	for range procs[o.workload] {
		r, err := spawn(share, "measure")
		if err != nil {
			return err
		}
		if r.Units <= 0 || r.Timed.CPUS <= 0 {
			return errors.New("a measuring process completed no work")
		}
		runs = append(runs, r)
	}
	rec := newRunRecord(o, runs)
	metrics := map[string]metric{
		"setup_s":        {median(rec.SetupS), "s"},
		"work_per_cpu_s": {median(rec.WorkPerCPU), "1/s"},
		"p50_ms":         {median(rec.P50MS), "ms"},
		"rss_peak_mb":    {median(rec.RSSMiB), "MiB"},
	}
	return emit(stdout, rec, metrics, []string{"setup_s", "work_per_cpu_s", "p50_ms", "rss_peak_mb"})
}

func newRunRecord(o options, runs []*childResult) *runRecord {
	rec := &runRecord{
		Workload: o.workload, Seed: o.seed, ClaimSeed: claimSeed, Seconds: o.seconds,
		Processes: len(runs), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	var wall, cpu, units, steal float64
	var setupWall, lat []float64
	for _, r := range runs {
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		if rec.FirstFail == "" {
			rec.FirstFail = r.Reason
		}
		rec.Ops += r.Ops
		wall += r.Timed.WallS
		cpu += r.Timed.CPUS
		units += r.Units
		steal += r.Timed.StealS * r.Timed.WallS
		setupWall = append(setupWall, r.Setup.WallS)
		lat = append(lat, r.LatMS...)
		rec.SetupS = append(rec.SetupS, r.Setup.CPUS)
		rec.P50MS = append(rec.P50MS, r.P50MS)
		rec.RSSMiB = append(rec.RSSMiB, r.RSSMiB)
		if r.Timed.CPUS > 0 {
			rec.WorkPerCPU = append(rec.WorkPerCPU, r.Units/r.Timed.CPUS)
		}
	}
	if cpu > 0 {
		rec.WallPerCPU = wall / cpu
	}
	if wall > 0 {
		rec.WallWorkPS = units / wall
		rec.StealShare = steal / wall
	}
	rec.WallSetupS = median(setupWall)
	rec.WallTail = tailOf(lat)
	return rec
}

// emit prints the run record, one human-readable line per metric, and
// the result line last.
func emit(stdout io.Writer, rec *runRecord, metrics map[string]metric, order []string) error {
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run-record %s\n", recJSON)
	for _, name := range order {
		m := metrics[name]
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// orchestrateTrace runs the untraced pass, the traced handler pass and
// the direct pass, each in a fresh process because the percentile cache
// is process-global, and joins the two traced passes by op id.
func orchestrateTrace(o options, stdout io.Writer) error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-%d", o.workload, o.seed))
	answers := stem + ".answers.json"
	hSpans, dSpans := stem+".handler.spans.jsonl", stem+".direct.spans.jsonl"

	m, err := spawn(o, "measure")
	if err != nil {
		return err
	}
	h, err := spawn(o, "handler", "--answers", answers, "--spans", hSpans)
	if err != nil {
		return err
	}
	d, err := spawn(o, "direct", "--ops", strconv.Itoa(h.Ops), "--answers", answers, "--spans", dSpans)
	if err != nil {
		return err
	}
	hs, err := readSpans(hSpans)
	if err != nil {
		return err
	}
	ds, err := readSpans(dSpans)
	if err != nil {
		return err
	}
	metrics := layerMetrics(o.workload, m, h, d, hs, ds)

	rec := newRunRecord(o, []*childResult{m})
	for _, c := range []*childResult{h, d} {
		rec.Attempted += c.Attempted
		rec.Failed += c.Failed
		if rec.FirstFail == "" {
			rec.FirstFail = c.Reason
		}
	}
	var order []string
	for _, pl := range perLayer {
		order = append(order, pl.name)
	}
	return emit(stdout, rec, metrics, order)
}
