# Convenience targets for the reproduction. Everything is plain `go`
# underneath; the Makefile only names the common invocations.

GO ?= go

.PHONY: all build test test-race race vet staticcheck check ci serve-smoke fleet-smoke logs-demo bench bench-queueing bench-frontier bench-frontier-smoke bench-serve bench-serve-smoke bench-fleet bench-fleet-smoke reproduce examples fuzz fuzz-smoke golden clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is on PATH. CI
# installs it on the runner; locally it is optional and skipped with a
# pointer rather than failing the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping" \
			"(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# check is the pre-commit gate: formatting, vet, build, tests, and the
# epserve end-to-end smoke run.
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) serve-smoke

# serve-smoke boots epserve on an ephemeral port, drives the loadgen mix
# for 5s, checks the /metrics exposition, and fails on any 5xx, a warm
# p99 above bound, or an unclean SIGTERM drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# fleet-smoke schema-checks every shipped scenario file, then runs the
# fleet simulator's scenario pipeline under the race detector on a tiny
# scenario (the shared-clock loop and chaos layer are the structures a
# data race would corrupt silently), and checks every golden fleet run
# against the serial reference oracle.
fleet-smoke:
	$(GO) run ./cmd/epfleet -check examples/scenarios/*.yaml
	$(GO) test -race -run 'TestExamplesRun|TestSeedOverrideChangesChaos' ./cmd/epfleet/
	$(GO) test -race -run 'TestSeedReproducibility$$|TestChaosBackgroundThrottleAndCaps' ./internal/fleet/
	$(GO) test -run 'TestReferenceGoldenRuns|TestNeverSaturatedRunLosesNothing' ./internal/fleet/

# logs-demo boots epserve with debug-level JSON logs on an ephemeral
# port, drives a short loadgen burst, and prints the structured access
# logs — the quickest way to see the request-scoped observability
# (request IDs, per-request attribution, slow-request sampling) live.
logs-demo:
	GO="$(GO)" sh scripts/logs_demo.sh

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias: the observability docs and CI refer to `make race`. The extra
# invocations hammer concurrent percentile solves (which must share no
# state), the full serve path (what concurrent HTTP load exercises),
# identical concurrent frontier requests, each sweeping under its own
# deadline, and concurrent frontier sweeps replacing one table's space
# slot.
race: test-race
	$(GO) test -race -run TestPercentileConcurrentSameBits -count 2 ./internal/queueing/
	$(GO) test -race -run TestServeRaceHammer -count 2 ./internal/serve/
	$(GO) test -race -run TestFrontierRequestsAreIndependent -count 5 ./internal/serve/
	$(GO) test -race -count 2 ./internal/replay/
	$(GO) test -race -run TestFrontierSharedSlotConcurrent -count 10 ./internal/pareto/

# ci is the full gate the workflow runs: formatting, vet, tier-1
# build+test, targeted race runs over the concurrency-heavy packages
# (concurrent percentile solves, serve streaming and its concurrent
# frontier sweeps, replay, and the memoized frontier engine's shared
# unit-calc table), the frontier
# fast-vs-reference differential smoke over the full footnote-4 space,
# one iteration of the frontier and fleet benchmarks, every example
# program run to completion, the epserve
# end-to-end smoke, the fleet-scenario smoke (schema checks plus
# race-detected runs), and a short fuzz smoke over the parser, kernel
# differential, epserve GET, POST and replay, frontier-sweep, fleet-run,
# scenario-parse and lazy-stepper targets.
ci:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/queueing/ ./internal/serve/ ./internal/replay/
	$(GO) test -run TestTableDifferentialPaperSpace ./internal/model/
	$(GO) test -race -short -run 'TestFastSweep|TestFrontier' ./internal/pareto/
	$(MAKE) bench-frontier-smoke
	$(MAKE) bench-fleet-smoke
	$(MAKE) examples
	$(MAKE) serve-smoke
	$(MAKE) fleet-smoke
	$(MAKE) bench-serve-smoke
	$(MAKE) fuzz-smoke

# One benchmark iteration per experiment: regenerates every table/figure
# metric quickly. Drop -benchtime for full statistical runs. Output also
# lands in bench.out so successive runs can be diffed / benchstat'd.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... | tee bench.out

# BENCH_COMMIT writes the `commit:` header line benchjson reads: the
# commit the numbers were measured at, with +dirty appended when tracked
# files differ from it (as perfbench/run.sh marks its runs), so numbers
# regenerated on an uncommitted tree do not claim to measure HEAD.
BENCH_COMMIT = c=$$(git rev-parse HEAD 2>/dev/null || echo unknown); \
	if [ "$$c" != unknown ] && ! git diff --quiet HEAD -- 2>/dev/null; then c="$$c+dirty"; fi; \
	echo "commit: $$c"

# Queueing-kernel benchmarks with the headline speedups distilled into
# BENCH_queueing.json (the float64 M/D/1 kernel versus the preserved
# reference implementation, plus the M/G/1 and Erlang-C kernels behind
# the same interface), with the GOMAXPROCS, Go version and commit they
# were measured at.
bench-queueing:
	{ echo "goversion: $$($(GO) env GOVERSION)"; \
	  $(BENCH_COMMIT); \
	  $(GO) test -bench 'BenchmarkWaitCDF|BenchmarkResponsePercentile|BenchmarkMG1|BenchmarkMMK|BenchmarkErlangC' \
		-benchmem -run '^$$' ./internal/queueing/; } | tee bench_queueing.out
	$(GO) run ./internal/tools/benchjson bench_queueing.out > BENCH_queueing.json
	@echo wrote BENCH_queueing.json

# Frontier-engine benchmarks over the paper's footnote-4 space (36,380
# configurations), distilled by benchjson into BENCH_frontier.json:
# sweep and per-evaluation speedups of the memoized engine versus the
# serial per-config reference (a cold sweep, a walk of a warm table's
# kept space, a repeated sweep that reuses that walk, and the full
# NoPrune walk), configs/s throughput, the allocs/op proof that the hot
# path stays off the heap, and the GOMAXPROCS, Go version and commit
# they were measured at.
bench-frontier:
	{ echo "goversion: $$($(GO) env GOVERSION)"; \
	  $(BENCH_COMMIT); \
	  $(GO) test -bench 'BenchmarkFrontierSweep|BenchmarkEvaluate(Calcs|Reference)$$' \
		-benchmem -run '^$$' ./internal/pareto/; } | tee bench_frontier.out
	$(GO) run ./internal/tools/benchjson bench_frontier.out > BENCH_frontier.json
	@echo wrote BENCH_frontier.json

# bench-frontier-smoke is the CI variant: one iteration each of the
# sweep benchmarks (cold, repeated on a warm table, warm walk,
# alternating, NoPrune and reference) piped through benchjson — proves
# the measurement harness and the engine end to end without committing
# numbers.
bench-frontier-smoke:
	$(GO) test -bench 'BenchmarkFrontierSweep' -benchmem -benchtime=1x \
		-run '^$$' ./internal/pareto/ | $(GO) run ./internal/tools/benchjson > /dev/null
	@echo bench-frontier smoke ok

# Fleet-simulator benchmarks: chaos-fleet.yaml cut to 180 simulated
# seconds at 100, 1,200 and 10,000 nodes, distilled into
# BENCH_fleet.json with node-seconds per wall-second, events/op and the
# GOMAXPROCS, Go version and commit they were measured at.
# bench-fleet-smoke is the CI variant: one iteration of each size
# through the distiller, committing nothing.
bench-fleet:
	{ echo "goversion: $$($(GO) env GOVERSION)"; \
	  $(BENCH_COMMIT); \
	  $(GO) test -bench 'BenchmarkFleetRun' -benchmem -run '^$$' ./internal/fleet/; } | tee bench_fleet.out
	$(GO) run ./internal/tools/benchjson bench_fleet.out > BENCH_fleet.json
	@echo wrote BENCH_fleet.json

bench-fleet-smoke:
	$(GO) test -bench 'BenchmarkFleetRun' -benchmem -benchtime=1x \
		-run '^$$' ./internal/fleet/ | $(GO) run ./internal/tools/benchjson > /dev/null
	@echo bench-fleet smoke ok

# Serving-capacity benchmark: boots epserve in-process and binary-
# searches the max sustained open-loop arrival rate at the p99 SLO for
# scalar GETs versus 64-item batch POSTs, distilled into
# BENCH_serve.json (headline: batch per-item throughput multiple).
# bench-serve-smoke is the CI variant — short probes, capped search —
# proving the harness end to end without chasing stable numbers.
bench-serve:
	$(GO) run ./internal/tools/benchserve -out BENCH_serve.json

bench-serve-smoke:
	$(GO) run ./internal/tools/benchserve -probe 250ms -smoke > /dev/null

# Regenerate every table, figure, extension study and SUMMARY.txt.
reproduce:
	$(GO) run ./cmd/reproduce -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacityplanning
	$(GO) run ./examples/latencysla
	$(GO) run ./examples/customnode
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/diurnal
	$(GO) run ./examples/biglittle

# fuzz runs each target for 30s; fuzz-smoke is the CI variant, a few
# seconds per target — enough to replay the corpus and catch gross
# regressions without stalling the gate.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' ./internal/cli/ -fuzz FuzzParseMix -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/replay/ -fuzz FuzzParseCSV -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/replay/ -fuzz FuzzParseJSON -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/queueing/ -fuzz FuzzWaitPercentileDifferential -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/queueing/ -fuzz FuzzKernelDifferential -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/serve/ -fuzz FuzzServeGET -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/serve/ -fuzz FuzzServePOST -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/serve/ -fuzz FuzzServeReplay -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/pareto/ -fuzz FuzzFrontierSweep -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/fleet/ -fuzz FuzzFleetRun -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/scenario/ -fuzz FuzzScenarioParse -fuzztime $(FUZZTIME)
	$(GO) test -run '^$$' ./internal/adaptive/ -fuzz FuzzStepper -fuzztime $(FUZZTIME)

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

# golden regenerates the testdata/ golden files (Table 7, Table 8, the
# Pareto sub-linearity classification). Review the diff before
# committing: any change is a behavioural change of the pipeline.
golden:
	$(GO) test -run TestGolden -update .

clean:
	rm -rf results bench.out bench_queueing.out bench_frontier.out bench_fleet.out
