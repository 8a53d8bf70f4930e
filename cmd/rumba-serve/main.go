// Command rumba-serve exposes the Rumba pipeline as a multi-tenant JSON API
// over the streaming runtime: a kernel registry loads trained approximators
// plus their error checkers at startup, one live tuner per tenant×kernel
// keeps quality control online across invocations (with JSON
// snapshot/restore across restarts), and an admission controller sheds load
// the Rumba way — degrading to approximate-only output under overload.
//
//	rumba-serve -train sobel -train-n 1200 -epochs 25 -state /tmp/rumba-state.json
//	rumba-serve -bundles ./bundles -addr :8080
//	rumba-serve -packages /var/lib/rumba/packages -addr :8080
//
//	curl -s localhost:8080/v1/invoke -d '{
//	  "tenant": "acme", "kernel": "sobel",
//	  "inputs": [[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9]]
//	}'
//
// SIGTERM/SIGINT drains: in-flight requests finish, queued requests
// complete, tuner state is snapshotted to -state, and the process exits
// with zero goroutine leaks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/server"
	"rumba/internal/tune"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	bundles := flag.String("bundles", "", "directory of rumba-train bundle JSON files to serve")
	packages := flag.String("packages", "", "kernel-package registry directory (rumba-pkg install target); every package is re-validated, corpus replay included, before serving")
	train := flag.String("train", "", "comma-separated benchmark names to train in-process at startup")
	trainN := flag.Int("train-n", 0, "training samples for -train (0 = Table 1 size)")
	epochs := flag.Int("epochs", 0, "NN training epochs for -train (0 = trainer default)")
	state := flag.String("state", "", "JSON snapshot file for per-tenant tuner state (loaded at startup, written on drain)")
	workers := flag.Int("workers", 4, "pipeline workers draining the shared admission queue")
	streamWorkers := flag.Int("stream-workers", 1, "recovery goroutines per tenant engine")
	queueCap := flag.Int("queue-cap", 64, "shared admission queue capacity")
	maxInFlight := flag.Int("max-inflight", 0, "in-flight request window (0 = queue-cap + workers); beyond it requests are shed, not queued")
	invocation := flag.Int("invocation", 512, fmt.Sprintf("tuner invocation granularity in elements (counted over each tenant's whole stream; at most %d)", server.MaxInvocationSize))
	recoveryDeadline := flag.Duration("recovery-deadline", 50*time.Millisecond, "per-element exact re-execution deadline (0 disables)")
	batch := flag.Int("batch", 0, "detection batch size per tenant engine (0 = 64, 1 = per-element); outputs are identical at every size")
	mode := flag.String("mode", "toq", "default tuner mode for new tenants: toq, energy, quality")
	target := flag.Float64("target", 0.10, "default tuner target for new tenants")
	drain := flag.Duration("drain", 30*time.Second, "drain timeout on SIGTERM")
	expvarFlag := flag.Bool("expvar", false, "additionally publish the metrics registry at /debug/vars")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof at /debug/pprof/ (off by default; profiling endpoints reveal stacks and heap contents)")
	traceCapacity := flag.Int("trace-capacity", 0, "flight-recorder ring capacity in traces; > 0 enables request tracing and /debug/rumba/traces (0 = disabled, zero hot-path overhead)")
	traceSample := flag.Int("trace-sample", 1, "tail-sample 1 in N healthy traces into the recorder (shed/degraded/violating traces are always kept; <= 1 keeps all)")
	driftWindow := flag.Int("drift-window", 0, "quality-drift monitor window in delivered elements (0 = 256)")
	driftK := flag.Int("drift-k", 0, "drift alert fires when K of the last N windows breach the tenant target (0 = 3)")
	driftN := flag.Int("drift-n", 0, fmt.Sprintf("window count the drift alert looks back over (0 = 5, at most %d)", server.MaxDriftN))
	frontierPath := flag.String("frontier", "", "rumba-tune frontier artifact (frontier.json): new tenants are served at the cheapest Pareto point meeting their quality target and the kernel's p99 SLO")
	dryRun := flag.Bool("dry-run", false, "validate the registry (and -frontier artifact, if any) then exit without serving")
	historyInterval := flag.Duration("history-interval", 0, "metrics history sampling period; > 0 records periodic registry snapshots served at /v1/metrics/history (0 = disabled)")
	historyCapacity := flag.Int("history-capacity", 0, "metrics history ring capacity in snapshots (0 = 240; at 15s sampling that is one hour)")
	sloEnabled := flag.Bool("slo", false, "enable per-tenant SLO burn-rate alerting (/v1/alerts, slo.* gauges, alert state in tenant health)")
	sloFast := flag.Duration("slo-fast", 0, "fast burn window (0 = 5m); both windows must burn for an alert to fire")
	sloSlow := flag.Duration("slo-slow", 0, "slow burn window (0 = 1h)")
	sloPageBurn := flag.Float64("slo-page-burn", 0, "burn-rate multiple of budget that pages (0 = 14.4 — a 30d budget gone in ~2d)")
	sloTicketBurn := flag.Float64("slo-ticket-burn", 0, "burn-rate multiple that opens a ticket (0 = 3)")
	sloTOQBudget := flag.Float64("slo-toq-budget", 0, "error budget: tolerated fraction of delivered elements missing their TOQ target (0 = 0.05)")
	sloLatencyBudget := flag.Float64("slo-latency-budget", 0, "error budget: tolerated fraction of stream chunks over the package p99 SLO (0 = 0.01)")
	sloShedBudget := flag.Float64("slo-shed-budget", 0, "error budget: tolerated fraction of requests shed by admission control (0 = 0.01)")
	flag.Parse()

	slo := server.SLOOptions{
		Enabled:         *sloEnabled,
		FastWindow:      *sloFast,
		SlowWindow:      *sloSlow,
		PageBurn:        *sloPageBurn,
		TicketBurn:      *sloTicketBurn,
		TOQMissBudget:   *sloTOQBudget,
		SlowChunkBudget: *sloLatencyBudget,
		ShedBudget:      *sloShedBudget,
	}
	if err := run(*addr, *bundles, *packages, *train, *state, *mode, *frontierPath,
		*trainN, *epochs, *workers, *streamWorkers, *queueCap, *maxInFlight, *invocation, *batch,
		*target, *recoveryDeadline, *drain, *expvarFlag, *pprofFlag, *dryRun,
		*traceCapacity, *traceSample, server.DriftConfig{Window: *driftWindow, K: *driftK, N: *driftN},
		slo, *historyInterval, *historyCapacity); err != nil {
		fmt.Fprintln(os.Stderr, "rumba-serve:", err)
		os.Exit(1)
	}
}

func run(addr, bundles, packages, train, state, mode, frontierPath string,
	trainN, epochs, workers, streamWorkers, queueCap, maxInFlight, invocation, batch int,
	target float64, recoveryDeadline, drain time.Duration, expvarFlag, pprofFlag, dryRun bool,
	traceCapacity, traceSample int, drift server.DriftConfig,
	slo server.SLOOptions, historyInterval time.Duration, historyCapacity int) error {
	reg := server.NewKernelRegistry()
	if bundles != "" {
		n, err := reg.LoadBundleDir(bundles)
		if err != nil {
			return err
		}
		fmt.Printf("== registry: loaded %d bundle(s) from %s\n", n, bundles)
	}
	if packages != "" {
		n, err := reg.LoadPackageDir(packages)
		if err != nil {
			return err
		}
		fmt.Printf("== registry: loaded %d validated package(s) from %s\n", n, packages)
	}
	for _, name := range splitList(train) {
		fmt.Printf("== registry: training %s in-process\n", name)
		k, err := server.TrainKernel(name, trainN, epochs)
		if err != nil {
			return err
		}
		if err := reg.Add(k); err != nil {
			return err
		}
	}
	if len(reg.Names()) == 0 {
		return errors.New("no kernels to serve (use -packages, -bundles and/or -train)")
	}

	var frontier *tune.Frontier
	if frontierPath != "" {
		var err error
		if frontier, err = tune.LoadFrontier(frontierPath); err != nil {
			return err
		}
		names := frontier.KernelNames()
		served := 0
		for _, n := range names {
			if _, ok := reg.Get(n); ok {
				served++
			}
		}
		fmt.Printf("== frontier: %s covers %d kernel(s), %d served here (checksum %s)\n",
			frontierPath, len(names), served, frontier.Checksum[:12])
	}
	if dryRun {
		fmt.Printf("== dry-run: registry and frontier valid, %d kernel(s) servable\n", len(reg.Names()))
		return nil
	}

	var tm core.TunerMode
	switch mode {
	case "toq":
		tm = core.ModeTOQ
	case "energy":
		tm = core.ModeEnergy
	case "quality":
		tm = core.ModeQuality
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	metrics := obs.NewRegistry()
	srv, err := server.New(reg, server.Options{
		Addr:             addr,
		PipelineWorkers:  workers,
		StreamWorkers:    streamWorkers,
		QueueCap:         queueCap,
		MaxInFlight:      maxInFlight,
		InvocationSize:   invocation,
		RecoveryDeadline: recoveryDeadline,
		BatchSize:        batch,
		EnablePprof:      pprofFlag,
		Defaults:         server.TunerDefaults{Mode: tm, Target: target},
		StatePath:        state,
		DrainTimeout:     drain,
		Metrics:          metrics,
		TraceCapacity:    traceCapacity,
		TraceSampleEvery: traceSample,
		Drift:            drift,
		Frontier:         frontier,
		SLO:              slo,
		HistoryInterval:  historyInterval,
		HistoryCapacity:  historyCapacity,
	})
	if err != nil {
		return err
	}
	if slo.Enabled {
		fmt.Println("== slo: burn-rate engine on, alerts at /v1/alerts, slo.* gauges in /metrics")
	}
	if historyInterval > 0 {
		fmt.Printf("== history: sampling metrics every %v into /v1/metrics/history\n", historyInterval)
	}
	if srv.Restored > 0 || srv.RestoreSkipped > 0 {
		fmt.Printf("== state: restored %d tenant tuner(s), skipped %d from %s\n",
			srv.Restored, srv.RestoreSkipped, state)
	}
	if expvarFlag {
		obs.Publish("rumba", metrics)
	}
	if pprofFlag {
		fmt.Println("== pprof: profiling endpoints exposed at /debug/pprof/")
	}
	if traceCapacity > 0 {
		fmt.Printf("== trace: flight recorder on, %d traces/ring, 1-in-%d tail sampling, dump at /debug/rumba/traces\n",
			traceCapacity, max(traceSample, 1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	fmt.Printf("== serving %s on http://%s (POST /v1/invoke; /healthz /readyz /metrics)\n",
		strings.Join(reg.Names(), ", "), addr)
	err = srv.Run(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if err == nil {
		fmt.Println("== drained cleanly")
		if state != "" {
			fmt.Printf("== state: tuner snapshot written to %s\n", state)
		}
	}
	return err
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
