package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"rumba/internal/bundle"
	"rumba/internal/cluster"
	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/server"
	"rumba/internal/trace"
)

// phases sets how long a run takes. The command line sets measure; tests
// shorten every field.
type phases struct {
	// warm is each phase's unmeasured warm-up: tuners converge, pools fill.
	warm time.Duration
	// measure is each phase's measured window.
	measure time.Duration
	// setupReps is how many times set-up is timed; the median is reported.
	setupReps int
	// ladderReqs is how many pool requests the traced ladder feeds through
	// each rung.
	ladderReqs int
}

// workloadResult is one workload's run, as written to result.json.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *workloadResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload builds the workload's kernel packages (untimed), boots its
// topology, runs the capacity and paced phases, verifies the sampled
// outputs and, when traced, feeds the layer ladder. End-to-end metrics of a
// traced run are not reported: they come from untraced runs only.
func runWorkload(w *workload, seed uint64, ph phases, workdir string, bundles map[string]*bundle.Bundle, traced bool) (*workloadResult, *ladderResult, error) {
	pkgDir, kernels, err := buildPackages(w, workdir, bundles)
	if err != nil {
		return nil, nil, err
	}
	p, err := buildPool(w, kernels, seed)
	if err != nil {
		return nil, nil, err
	}
	topo, setupS, err := setUp(w, pkgDir, p.bodies[0], ph.setupReps)
	if err != nil {
		return nil, nil, err
	}
	defer topo.close()
	g := newLoadgen(topo.url, p)
	defer g.close()

	res := &workloadResult{Workload: w.Name, Correct: true, Metrics: map[string]float64{}}
	m := res.Metrics
	first := topo.metrics()
	heap := startHeapSampler()

	var before, after obs.Snapshot
	var ms0, ms1 runtime.MemStats
	perWindow := g.capacity(ph.warm, ph.measure,
		func() { before = topo.metrics(); runtime.ReadMemStats(&ms0) },
		func() { after = topo.metrics(); runtime.ReadMemStats(&ms1) })
	d := obs.Delta(before, after)
	secs := ph.measure.Seconds()
	n, length := windows(ph.measure)
	var ok int64
	rates := make([]float64, n)
	for i, c := range perWindow {
		ok += c
		rates[i] = float64(c*int64(w.Elems)) / length.Seconds()
	}
	shed := d.Counters[server.MetricShed]
	m["throughput_eps"] = median(rates) - float64(shed*int64(w.Elems))/secs

	paced := g.paced(w.RateRPS, seed, ph.warm, ph.measure)
	m["heap_peak_mb"] = heap.peakMiB()
	last := obs.Delta(first, topo.metrics())

	v, err := newVerifier(kernels)
	if err != nil {
		return nil, nil, err
	}
	bad := 0
	for _, s := range g.samples() {
		if err := v.check(p.kernel[s.body], p.inputs[s.body], s.raw); err != nil {
			if bad++; bad <= maxReported {
				res.problem("verification: request body %d: %v", s.body, err)
			}
		}
	}
	if bad > maxReported {
		res.problem("verification: %d more responses failed", bad-maxReported)
	}
	g.failed.Add(int64(bad))
	for _, e := range g.errs {
		res.problem("request failed: %s", e)
	}
	res.Attempted, res.Failed = g.attempted.Load(), g.failed.Load()

	m["latency_p50_ms"] = windowedQuantile(paced.latency, 0.50)
	m["latency_p90_ms"] = windowedQuantile(paced.latency, 0.90)
	lat := paced.all
	m["output_error"] = v.outputError()
	m["setup_s"] = setupS
	m["error_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	// Each degraded element counts as one request: an upper bound.
	degraded := last.Counters[server.MetricShed] + last.Counters[core.MetricDegraded]
	m["degraded_frac"] = float64(degraded) / float64(max(res.Attempted, 1))
	for _, pct := range []float64{99.99, 99.9, 99, 90, 50} {
		if float64(len(lat))*(1-pct/100) >= 10 {
			m["latency_tail_ms"], m["latency_tail_pct"] = quantile(lat, pct/100), pct
			break
		}
	}
	m["latency_samples"] = float64(len(lat))

	switch {
	case v.elems == 0:
		res.problem("no response was verified")
	case m["output_error"] > w.TOQ:
		res.problem("output error %.4f exceeds the TOQ %.2f", m["output_error"], w.TOQ)
	}
	if paced.saturated {
		res.problem("paced phase saturated: the generator backlog grew over its last seconds (max %d)", paced.backlogMax)
	}
	if def, _ := e2eDef("degraded_frac"); m["degraded_frac"] > def.Abs {
		res.problem("degraded fraction %.4f exceeds %.4f", m["degraded_frac"], def.Abs)
	}
	if res.Failed > 0 && len(res.Problems) == 0 {
		res.problem("%d of %d requests failed", res.Failed, res.Attempted)
	}

	out := float64(max(d.Counters[core.MetricElementsOut], 1))
	m["core.fire_rate"] = float64(d.Counters[core.MetricFires]) / out
	m["core.fix_rate"] = float64(d.Counters[core.MetricFixes]) / out
	m["core.degraded_rate"] = float64(d.Counters[core.MetricDegraded]) / out
	m["core.detect_ns_mean"] = d.Histograms[core.MetricDetectNs].Mean()
	m["core.recover_ns_mean"] = d.Histograms[core.MetricRecoverNs].Mean()
	m["server.admitted_latency_ms_mean"] = d.Histograms[server.MetricLatencyNs].Mean() / 1e6
	m["server.queue_stalls"] = float64(d.Counters[server.MetricQueueStalls])
	m["server.shed"] = float64(shed)
	m["cluster.forwards"] = float64(sumLabeled(d, cluster.MetricForwards))
	m["cluster.failovers"] = float64(sumLabeled(d, cluster.MetricFailovers))
	reqs := float64(max(ok, 1))
	m["runtime.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / reqs
	m["runtime.gc_per_s"] = float64(ms1.NumGC-ms0.NumGC) / secs
	m["runtime.gc_pause_ms_per_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / secs
	m["loadgen.lag_p99_ms"] = paced.lagP99
	m["loadgen.backlog_max"] = float64(paced.backlogMax)
	m["trace.recorded_frac"] = 0
	if w.Routed {
		frac, err := recordedFrac(append([]string{topo.url}, topo.nodeURLs...))
		if err != nil {
			return nil, nil, err
		}
		m["trace.recorded_frac"] = frac
	}

	if !traced {
		return res, nil, nil
	}
	lad, err := runLadder(w, topo, p, kernels, pkgDir, ph.ladderReqs)
	if err != nil {
		return nil, nil, err
	}
	for k, val := range lad.Metrics {
		m[k] = val
	}
	return res, lad, nil
}

// sumLabeled adds up every label set of one counter.
func sumLabeled(s obs.Snapshot, name string) int64 {
	var n int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

// recordedFrac reads the flight recorders of the router and every node over
// HTTP and returns the share of completed traces they kept.
func recordedFrac(urls []string) (float64, error) {
	var offered, recorded uint64
	for _, u := range urls {
		resp, err := http.Get(u + "/debug/rumba/traces")
		if err != nil {
			return 0, err
		}
		var d trace.Dump
		err = json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("trace dump from %s: %w", u, err)
		}
		offered += d.Offered
		recorded += d.Recorded
	}
	http.DefaultClient.CloseIdleConnections()
	return float64(recorded) / float64(max(offered, 1)), nil
}
