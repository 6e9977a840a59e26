package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

func TestMain(m *testing.M) {
	repoRoot = ".." // the tests run in perfbench/
	os.Exit(m.Run())
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	apiForm := func(in *apiInputs) []string {
		var out []string
		for _, q := range in.distinct {
			out = append(out, q.req.method+" "+q.req.url.String()+" "+string(q.req.body))
		}
		for _, k := range in.stream {
			out = append(out, string(rune(k)))
		}
		return out
	}
	frontierForm := func(in *frontierInputs) []string {
		var out []string
		for _, q := range append(in.warm, in.stream...) {
			out = append(out, q.req.url.String())
		}
		return out
	}
	replayForm := func(in *replayInputs) []string {
		var out []string
		for _, q := range append(in.warm, in.stream...) {
			out = append(out, string(q.req.body))
		}
		return out
	}
	for _, tc := range []struct {
		name string
		gen  func(seed uint64) []string
	}{
		{"api-mix", func(s uint64) []string { return apiForm(genAPIMix(s, 256, 1024)) }},
		{"frontier-dvfs", func(s uint64) []string { return frontierForm(genFrontier(s, 64)) }},
		{"replay-diurnal", func(s uint64) []string { return replayForm(genReplay(s, 64)) }},
		{fleetWorkload, func(s uint64) []string { return strings.Fields(fmt.Sprint(genFleet(s, 16))) }},
	} {
		a, b, c := tc.gen(3), tc.gen(3), tc.gen(4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 generated different inputs on two calls", tc.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", tc.name)
		}
	}
}

func TestAPIMixShares(t *testing.T) {
	in := genAPIMix(defaultSeed, apiDistinct, 16)
	counts := map[apiKind]int{}
	for _, q := range in.distinct {
		counts[q.kind]++
	}
	n := float64(len(in.distinct))
	for kind, want := range map[apiKind]float64{apiRaw: 0.50, apiModel: 0.20, apiEpm: 0.15, apiPost: 0.15} {
		if got := float64(counts[kind]) / n; got < want-0.03 || got > want+0.03 {
			t.Errorf("kind %d share %.3f, want about %.2f", kind, got, want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	tl := tailOf(samples)
	if tl == nil || tl.Percentile != 99 || tl.ValueMS != 990 || tl.Samples != 1000 {
		t.Errorf("tailOf(1..1000) = %+v, want p99 = 990 over 1000 samples", tl)
	}
	if tailOf(samples[:19]) != nil {
		t.Error("tailOf(19 samples) reported a tail")
	}
}

func TestLatencyStoreBounded(t *testing.T) {
	s := newLatencyStore(8, 1)
	for i := range 100 {
		s.add(float64(i))
	}
	if len(s.ms) != 8 || s.seen != 100 {
		t.Fatalf("store holds %d of %d samples, want 8 of 100", len(s.ms), s.seen)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median is wrong")
	}
}

func TestParseProcStat(t *testing.T) {
	const stat = "cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 3 0\nintr 1\n"
	st, err := parseProcStat(strings.NewReader(stat))
	if err != nil {
		t.Fatal(err)
	}
	if st.total != 1000 || st.steal != 32 {
		t.Fatalf("got total %d steal %d, want 1000 and 32 (guest time excluded)", st.total, st.steal)
	}
	later := cpuStat{total: 1100, steal: 42}
	if got := stealShare(st, later); got != 0.1 {
		t.Errorf("stealShare = %v, want 0.1", got)
	}
	if got := stealShare(later, later); got != 0 {
		t.Errorf("stealShare over no ticks = %v, want 0", got)
	}
	for _, bad := range []string{"intr 1\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
	if _, err := parseProcStat(strings.NewReader(readFileOr(t, "/proc/stat"))); err != nil {
		t.Errorf("this host's /proc/stat: %v", err)
	}
}

func TestParseVmHWMAndRusage(t *testing.T) {
	got, err := parseVmHWM(strings.NewReader("Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t   2048 kB\n"))
	if err != nil || got != 2 {
		t.Fatalf("parseVmHWM = %v, %v; want 2 MiB", got, err)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t1 MB\n", "VmHWM:\tx kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed input", bad)
		}
	}
	if rss, err := peakRSSMiB(); err != nil || rss <= 0 {
		t.Errorf("peakRSSMiB = %v, %v", rss, err)
	}
	c0 := cpuSeconds()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	if d := cpuSeconds() - c0; d <= 0 || d > 5 {
		t.Errorf("busy 50 ms consumed %v CPU seconds (x=%d)", d, x)
	}
}

func readFileOr(t *testing.T, path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no %s: %v", path, err)
	}
	return string(data)
}

func TestJSONClose(t *testing.T) {
	a := []byte(`{"x":1.0,"y":[1,2],"s":"a"}`)
	if err := jsonClose(a, []byte(`{"x":1.0000000001,"y":[1,2],"s":"a"}`), relTol(1e-9)); err != nil {
		t.Errorf("within 1e-9: %v", err)
	}
	for _, b := range []string{
		`{"x":1.0000000001,"y":[1,2],"s":"a"}`, // bitwise mode
		`{"x":1,"y":[1,3],"s":"a"}`,
		`{"x":1,"y":[1,2],"s":"b"}`,
		`{"x":1,"y":[1,2]}`,
	} {
		if err := jsonClose(a, []byte(b), relTol(0)); err == nil {
			t.Errorf("jsonClose accepted %s", b)
		}
	}
}

func testEnv(m mode) *wenv {
	return &wenv{seed: 5, mode: m, extra: map[string]float64{}}
}

// runOps sets w up and runs n ops, failing the test on any failure.
func runOps(t *testing.T, w runner, n int) []opResult {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, failed, reason := w.checkWarmup(); failed != 0 {
		t.Fatalf("warm-up: %d failed: %s", failed, reason)
	}
	var out []opResult
	for i := range n {
		r := w.op(i)
		if !r.ok || r.units <= 0 || r.latency <= 0 {
			t.Fatalf("op %d: ok=%v units=%v latency=%v: %s", i, r.ok, r.units, r.latency, r.reason)
		}
		r.body = bytes.Clone(r.body)
		out = append(out, r)
	}
	return out
}

// TestTinyRuns runs every workload briefly through its entry point and
// then through the direct path, checking the direct results against the
// served answers as the traced run does.
func TestTinyRuns(t *testing.T) {
	build := map[string]func(e *wenv) runner{
		"api-mix":        func(e *wenv) runner { return newAPIMix(e, genAPIMix(e.seed, 64, 256)) },
		"frontier-dvfs":  func(e *wenv) runner { return newFrontier(e, genFrontier(e.seed, 4)) },
		"replay-diurnal": func(e *wenv) runner { return newReplay(e, genReplay(e.seed, 4)) },
		fleetWorkload: func(e *wenv) runner {
			f, err := newFleet(e, 200, genFleet(e.seed, 2))
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			served := runOps(t, build[name](testEnv(serveMode)), 3)
			de := testEnv(directMode)
			de.answers = map[int][]byte{}
			for _, r := range served {
				de.answers[r.key] = r.body
			}
			direct := runOps(t, build[name](de), 3)
			for i, r := range direct {
				if ok, reason := de.compareAnswer(r.key, r.direct, r.tol); !ok {
					t.Errorf("op %d: %s", i, reason)
				}
			}
		})
	}
}

func TestOraclesRejectCorruptedAnswers(t *testing.T) {
	// api-mix: a served percentile off by 1e-6 relative fails the
	// warm-up oracle, and a timed answer that differs from its warm-up
	// answer fails the op.
	in := genAPIMix(9, 32, 64)
	a := newAPIMix(testEnv(serveMode), in)
	if err := a.setup(); err != nil {
		t.Fatal(err)
	}
	d := newAPIDirect(nil)
	k := 0
	for in.distinct[k].kind != apiRaw {
		k++
	}
	q := &in.distinct[k]
	if err := d.check(q, a.warmB[k]); err != nil {
		t.Fatalf("untouched answer rejected: %v", err)
	}
	var resp serve.PercentilesResponse
	if err := json.Unmarshal(a.warmB[k], &resp); err != nil {
		t.Fatal(err)
	}
	resp.Percentiles[0].ResponseSeconds *= 1 + 1e-6
	bad, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.check(q, bad); err == nil {
		t.Error("api-mix oracle accepted a corrupted percentile answer")
	}
	a.warm[in.stream[0]] ^= 1
	if r := a.op(0); r.ok {
		t.Error("api-mix accepted a timed answer differing from its warm-up answer")
	}

	// api-mix: a wait that is not the p-quantile of the M/D/1 wait CDF
	// fails, even with its response moved along so that it is still
	// wait + D; the untouched answers pass.
	checked := 0
	for k := range in.distinct {
		if in.distinct[k].kind != apiRaw && in.distinct[k].kind != apiModel {
			continue
		}
		var r serve.PercentilesResponse
		if err := json.Unmarshal(a.warmB[k], &r); err != nil {
			t.Fatal(err)
		}
		if err := checkQuantiles(&r); err != nil {
			t.Errorf("untouched percentile answer rejected: %v", err)
		}
		pt := &r.Percentiles[0]
		if pt.WaitSeconds == 0 {
			continue
		}
		pt.WaitSeconds *= 1 + 1e-6
		pt.ResponseSeconds = pt.WaitSeconds + r.ServiceTimeSeconds
		if checkQuantiles(&r) == nil {
			t.Errorf("quantile oracle accepted a wait off by 1e-6 at u=%g p=%g", r.Utilization, pt.P)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no api-mix answer with a non-zero wait to corrupt")
	}

	// frontier-dvfs: explored must be 36,380.
	rec := newRecorder()
	rec.WriteHeader(200)
	rec.body.WriteString(`{"workload":"EP","explored":36379,"frontier":[]}`)
	if checkExplored(rec) == nil {
		t.Error("frontier oracle accepted explored=36379")
	}

	// replay-diurnal: an error frame, a short summary, or none.
	for _, stream := range []string{
		`{"summary":{"steps":288}}` + "\n" + `{"error":{"code":"x","message":"y"}}` + "\n",
		`{"summary":{"steps":287}}` + "\n",
		"",
	} {
		rec.reset()
		rec.WriteHeader(200)
		rec.body.WriteString(stream)
		if _, err := replaySummary(rec); err == nil {
			t.Errorf("replay oracle accepted %q", stream)
		}
	}
	rec.reset()
	rec.WriteHeader(200)
	rec.body.WriteString(`{"summary":{"steps":288}}` + "\n")
	if _, err := replaySummary(rec); err != nil {
		t.Errorf("replay oracle rejected a good stream: %v", err)
	}

	// replay-diurnal: a kept summary of the timed phase that differs
	// from a direct replay.Run fails checkTimed.
	rw := newReplay(testEnv(serveMode), genReplay(5, 4))
	if err := rw.setup(); err != nil {
		t.Fatal(err)
	}
	if r := rw.op(0); !r.ok {
		t.Fatalf("replay op: %s", r.reason)
	}
	if _, failed, reason := rw.checkTimed(); failed != 0 {
		t.Fatalf("untouched replay summary rejected: %s", reason)
	}
	var sum map[string]any
	if err := json.Unmarshal(rw.kept[0].summary, &sum); err != nil {
		t.Fatal(err)
	}
	sum["total_energy_joules"] = sum["total_energy_joules"].(float64) * (1 + 1e-6)
	if rw.kept[0].summary, err = json.Marshal(sum); err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := rw.checkTimed(); failed != 1 {
		t.Error("replay oracle accepted a summary differing from a direct replay.Run")
	}

	// fleet-1200: work must be conserved.
	if checkConservation(&fleet.Summary{OfferedUnits: 10, CompletedUnits: 6, LostUnits: 3}) == nil {
		t.Error("fleet oracle accepted offered != completed + lost")
	}
	if err := checkConservation(&fleet.Summary{OfferedUnits: 10, CompletedUnits: 7, LostUnits: 3}); err != nil {
		t.Errorf("fleet oracle rejected a conserving summary: %v", err)
	}
	// fleet-1200: an op's summary must equal its history's warm-up run.
	fw, err := newFleet(testEnv(serveMode), 200, genFleet(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.setup(); err != nil {
		t.Fatal(err)
	}
	if r := fw.op(1); !r.ok {
		t.Fatalf("untouched fleet op rejected: %s", r.reason)
	}
	fw.want[1] = bytes.Replace(fw.want[1], []byte(`"events":`), []byte(`"events":1`), 1)
	if fw.op(1).ok {
		t.Error("fleet oracle accepted a summary differing from its warm-up run's")
	}
}

// TestBenchmarkJSONMatches pins the repository's BENCHMARK.json to what
// the command prints: its workloads are the ones this binary runs, its
// end-to-end metrics are the --trace 0 set, and its per-layer metrics
// are exactly what every traced run prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json gates %v, the command runs %v", names, workloadNames)
	}
	want := map[string]string{"setup_s": "s", "work_per_cpu_s": "1/s", "p50_ms": "ms", "rss_peak_mb": "MiB"}
	if len(b.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, want %d", len(b.EndToEnd), len(want))
	}
	for _, m := range b.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s [%s] is not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], printed %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestLayerJoin(t *testing.T) {
	// One op: ServeHTTP took 10 ms; directly, queueing 3 ms and
	// energyprop 2 ms inside a 6 ms op.
	hs := []span{
		{Name: "op", ID: 0, Parent: -1, Op: 0, Start: 0, End: 11e6},
		{Name: "serve.ServeHTTP", Route: "percentiles.GET", ID: 1, Parent: 0, Op: 0, Start: 0, End: 10e6},
	}
	ds := []span{
		{Name: "op", ID: 0, Parent: -1, Op: 0, Start: 0, End: 6e6},
		{Name: "queueing.Percentiles", ID: 1, Parent: 0, Op: 0, Start: 0, End: 3e6},
		{Name: "energyprop.Analyze", ID: 2, Parent: 0, Op: 0, Start: 3e6, End: 5e6},
		{Name: "energyprop.Analyze", ID: 3, Parent: -1, Op: -1, Start: 0, End: 9e6},
	}
	m := &childResult{Ops: 1, P50MS: 9}
	h := &childResult{Ops: 1, P50MS: 10}
	got := layerMetrics("api-mix", m, h, &childResult{}, hs, ds)
	for name, want := range map[string]float64{
		"layer.entry_ms":                   10,
		"layer.serve_self_ms":              4,
		"layer.queueing_ms":                3,
		"layer.energyprop_ms":              2,
		"layer.unattributed_ms":            1,
		"serve.handler_ms.percentiles.GET": 10,
		"serve.self_ms.percentiles.GET":    4,
		"telemetry.overhead_p50_ms":        1,
	} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
	if got["pareto.sweep_ms"].Value != 0 || len(got) != len(perLayer) {
		t.Errorf("got %d metrics, want all %d, pareto.sweep_ms 0 on api-mix", len(got), len(perLayer))
	}
}
