package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rumba/internal/accel"
	"rumba/internal/core"
	"rumba/internal/exec"
	"rumba/internal/obs"
	"rumba/internal/predictor"
	"rumba/internal/server"
	"rumba/internal/trace"
)

// ExpServe load-tests the rumba-serve layer in-process: N concurrent tenants
// hammer a deliberately under-provisioned server (small worker pool, small
// admission queue) over a real loopback listener, and the table reports the
// admitted/shed split, element-level shed/degraded/recovery rates, the
// per-tenant quality-drift verdicts, the flight recorder's retention, and
// the admitted-request latency distribution — all from the server's own
// observability surface (metrics snapshot, tenant listing, trace dump), the
// same signals an operator scrapes in production. It is registered in
// rumba-bench but excluded from `-exp all`: latencies and the exact shed
// count are wall-clock and machine-dependent.
func ExpServe(c *Context, benchmark string) (*Table, error) {
	if benchmark == "" {
		benchmark = "fft"
	}
	const (
		clients  = 8
		requests = 12 // per client
		batch    = 64 // elements per request
	)
	p, err := c.Prepare(benchmark)
	if err != nil {
		return nil, err
	}

	acfg := p.RumbaAccel.Config()
	kernel := &server.Kernel{
		Name:     p.Spec.Name,
		Spec:     p.Spec,
		NewAccel: func() (exec.Executor, error) { return accel.New(acfg, 0) },
		Checkers: map[string]server.CheckerFactory{
			"tree":   func() predictor.Predictor { return p.Preds.Tree },
			"linear": func() predictor.Predictor { return p.Preds.Linear },
		},
		DefaultChecker: "tree",
	}
	reg := server.NewKernelRegistry()
	if err := reg.Add(kernel); err != nil {
		return nil, err
	}
	metrics := obs.NewRegistry()
	srv, err := server.New(reg, server.Options{
		Addr:            "127.0.0.1:0",
		PipelineWorkers: 2,
		QueueCap:        2,
		MaxInFlight:     4,
		InvocationSize:  batch,
		Metrics:         metrics,
		// The full observability surface, as deployed: a flight recorder
		// tail-sampling 1-in-8 healthy traces (flagged ones always kept) and
		// a drift monitor sized so each tenant closes several windows over
		// its 12 × 64 delivered elements.
		TraceCapacity:    64,
		TraceSampleEvery: 8,
		Drift:            server.DriftConfig{Window: 128},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	var url string
	for deadline := time.Now().Add(5 * time.Second); ; {
		if addr := srv.Addr(); addr != "" {
			url = "http://" + addr
			break
		}
		if time.Now().After(deadline) {
			cancel()
			<-runErr
			return nil, fmt.Errorf("serve: listener never bound")
		}
		time.Sleep(time.Millisecond)
	}

	type clientStats struct {
		ok, degraded, failed int
	}
	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				inputs := make([][]float64, 0, batch)
				for i := 0; i < batch; i++ {
					inputs = append(inputs, p.Test.Inputs[(cl*requests*batch+r*batch+i)%len(p.Test.Inputs)])
				}
				req := server.InvokeRequest{
					Tenant: fmt.Sprintf("tenant-%d", cl),
					Kernel: p.Spec.Name,
					Inputs: inputs,
				}
				body, err := json.Marshal(req)
				if err != nil {
					stats[cl].failed++
					continue
				}
				resp, err := http.Post(url+"/v1/invoke", "application/json", bytes.NewReader(body))
				if err != nil {
					stats[cl].failed++
					continue
				}
				var out server.InvokeResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					stats[cl].failed++
					continue
				}
				if out.Degraded {
					stats[cl].degraded++
				} else {
					stats[cl].ok++
				}
			}
		}(cl)
	}
	wg.Wait()

	// Pull the flight-recorder dump over the wire before shutdown — the same
	// way an operator would after an incident.
	var dump trace.Dump
	if resp, err := http.Get(url + "/debug/rumba/traces"); err == nil {
		derr := json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if derr != nil {
			dump = trace.Dump{}
		}
	}

	cancel()
	if err := <-runErr; err != nil {
		return nil, err
	}
	http.DefaultClient.CloseIdleConnections()

	var ok, degraded, failed int
	for _, s := range stats {
		ok += s.ok
		degraded += s.degraded
		failed += s.failed
	}
	total := ok + degraded
	snap := metrics.Snapshot()
	lat := snap.Histograms[server.MetricLatencyNs]

	t := &Table{
		Title: fmt.Sprintf("rumba-serve load — %s: %d clients × %d requests × %d elements, 2 workers / 4 in-flight",
			benchmark, clients, requests, batch),
		Note:   "latencies are wall-clock and the shed count depends on machine speed; not part of the canonical results",
		Header: []string{"metric", "value"},
	}
	t.AddRow("requests completed", fmt.Sprintf("%d", total))
	t.AddRow("requests failed", fmt.Sprintf("%d", failed))
	admitted := snap.Counters[server.MetricRequests]
	shed := snap.Counters[server.MetricShed]
	t.AddRow("admitted (full pipeline)", fmt.Sprintf("%d", admitted))
	t.AddRow("shed (approximate-only)", fmt.Sprintf("%d", shed))
	if admitted+shed > 0 {
		t.AddRow("shed-request rate", fmt.Sprintf("%.1f%%", 100*float64(shed)/float64(admitted+shed)))
	}
	if total > 0 {
		t.AddRow("degraded-request rate", fmt.Sprintf("%.1f%%", 100*float64(degraded)/float64(total)))
	}
	// Element-level quality outcomes across every admitted pipeline: how many
	// elements fired the checker, how many recovery fixed, and how many were
	// delivered degraded (fired but shipped approximate anyway).
	if out := snap.Counters[core.MetricElementsOut]; out > 0 {
		t.AddRow("elements delivered", fmt.Sprintf("%d", out))
		t.AddRow("checker fire rate", fmt.Sprintf("%.1f%%", 100*float64(snap.Counters[core.MetricFires])/float64(out)))
		t.AddRow("recovered (fixed) rate", fmt.Sprintf("%.1f%%", 100*float64(snap.Counters[core.MetricFixes])/float64(out)))
		t.AddRow("degraded-element rate", fmt.Sprintf("%.1f%%", 100*float64(snap.Counters[core.MetricDegraded])/float64(out)))
	}
	t.AddRow("queue stalls", fmt.Sprintf("%d", snap.Counters[server.MetricQueueStalls]))
	g := snap.Gauges[server.MetricInFlight]
	t.AddRow("in-flight high-water", fmt.Sprintf("%.0f", g.Max))
	if lat.Count > 0 {
		t.AddRow("admitted latency p50", fmt.Sprintf("<= %.2f ms", lat.Quantile(0.5)/1e6))
		t.AddRow("admitted latency p99", fmt.Sprintf("<= %.2f ms", lat.Quantile(0.99)/1e6))
	}
	// Flight-recorder retention: how many traces the run produced, how many
	// the tail-sampler kept, and how many were flagged (shed, degraded, or a
	// drift violation) and so bypassed sampling entirely.
	flaggedTraces := 0
	for _, tr := range dump.Traces {
		if len(tr.Flags) > 0 {
			flaggedTraces++
		}
	}
	t.AddRow("traces recorded", fmt.Sprintf("%d of %d offered (1-in-%d tail sampling, flagged always kept)",
		dump.Recorded, dump.Offered, dump.SampleEvery))
	t.AddRow("traces flagged", fmt.Sprintf("%d", flaggedTraces))
	// Per-tenant tuner position and quality-drift verdict — the monitor's
	// k-of-n state over its closed windows.
	violatingTenants := 0
	for _, ti := range srv.Tenants() {
		t.AddRow("threshold "+ti.Tenant, fmt.Sprintf("%.4g (%d fixed / %d elements)", ti.Threshold, ti.Fixed, ti.Elements))
		if d := ti.Drift; d != nil {
			t.AddRow("drift "+ti.Tenant, fmt.Sprintf("%s (%d/%d windows breached, est %.4g vs target %.4g)",
				d.State, d.Violations, d.Windows, d.LastEstimate, d.Target))
			if d.State == "violating" {
				violatingTenants++
			}
		}
	}
	t.AddRow("tenants violating TOQ", fmt.Sprintf("%d", violatingTenants))
	return t, nil
}
