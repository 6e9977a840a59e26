// Command epserve runs the long-running evaluation service: the M/D/1
// tail-latency kernel, the energy-proportionality metrics and the
// energy-deadline Pareto frontier behind an HTTP API with admission
// control, load shedding, per-request deadlines, Prometheus metrics and
// graceful shutdown. See docs/API.md for the endpoint reference.
//
// Usage:
//
//	epserve -addr :8080 [-inflight 16] [-queue 64] [-timeout 10s]
//	        [-log-level debug] [-log-format json] [-slow-request 250ms]
//
// Every request is answered with an X-Request-ID header and summarized
// by one structured access-log line carrying the same ID; /metrics
// exports per-route latency histograms with request-ID exemplars and
// /v1/debug/stats a JSON RED/SLO snapshot.
//
// SIGTERM or SIGINT drains in-flight requests (readiness flips first)
// and exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for test drivers)")
	nodes := flag.String("nodes", "", "JSON file with extra node types")
	wls := flag.String("workloads", "", "JSON file with extra workload profiles")
	inflight := flag.Int("inflight", 0, "max concurrently executing requests (0 = 2*GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a slot before shedding (0 = 4*inflight, negative = no queue)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 10s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested ?timeout= (0 = 60s)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	slow := flag.Duration("slow-request", 0, "latency threshold for sampled slow-request warn logs (0 = 1s, negative disables)")
	logs := cli.AddLogFlags(nil)
	flag.Parse()

	logger, err := logs.Logger(os.Stderr)
	if err != nil {
		cli.Fatal("epserve", err)
	}
	if err := run(*addr, *addrFile, *nodes, *wls, *inflight, *queue, *timeout, *maxTimeout, *drain, *slow, logger); err != nil {
		cli.Fatal("epserve", err)
	}
}

func run(addr, addrFile, nodesPath, wlsPath string, inflight, queue int, timeout, maxTimeout, drain, slow time.Duration, logger *slog.Logger) error {
	catalog, registry, err := cli.LoadEnvironment(nodesPath, wlsPath)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	telemetry.SetGlobal(reg)

	srv, err := serve.New(serve.Config{
		Catalog:        catalog,
		Workloads:      registry,
		Telemetry:      reg,
		Logger:         logger,
		SlowRequest:    slow,
		MaxInflight:    inflight,
		MaxQueue:       queue,
		DefaultTimeout: timeout,
		MaxTimeout:     maxTimeout,
	})
	if err != nil {
		return err
	}

	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(addr, addrCh) }()

	select {
	case err := <-errCh:
		return err // listen failed before binding
	case bound := <-addrCh:
		logger.Info("epserve listening",
			"addr", bound.String(), "build", serve.ReadBuildInfo().String())
		if addrFile != "" {
			if err := os.WriteFile(addrFile, []byte(bound.String()), 0o644); err != nil {
				return fmt.Errorf("writing -addr-file: %w", err)
			}
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err // server died on its own
	case sig := <-sigCh:
		logger.Info("epserve draining", "signal", sig.String(), "grace", drain.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errCh; err != nil {
		return err
	}
	logger.Info("epserve drained cleanly")
	return nil
}
