package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/trace"
)

// res builds one StreamResult for drift-monitor unit tests.
func res(pred float64, fixed, degraded bool) core.StreamResult {
	return core.StreamResult{PredictedError: pred, Fixed: fixed, Degraded: degraded}
}

func resObserved(pred, observed float64, fixed bool) core.StreamResult {
	r := res(pred, fixed, !fixed)
	r.Observed = true
	r.ObservedError = observed
	return r
}

func feed(d *driftMonitor, r core.StreamResult, n int) {
	batch := make([]core.StreamResult, n)
	for i := range batch {
		batch[i] = r
	}
	d.note(batch)
}

func TestDriftStateMachine(t *testing.T) {
	d := newDriftMonitor(DriftConfig{Window: 4, K: 2, N: 3}, 0.1)
	if got := d.info(); got.State != "ok" || got.Windows != 0 {
		t.Fatalf("fresh monitor: %+v", got)
	}

	// Healthy window: unfired elements predicted well under target.
	feed(d, res(0.05, false, false), 4)
	if got := d.info(); got.State != "ok" || got.Windows != 1 || got.LastEstimate != 0.05 {
		t.Fatalf("after healthy window: %+v", got)
	}

	// One violating window (degraded elements deliver their predicted
	// error): drifting, not yet violating.
	feed(d, res(0.5, false, true), 4)
	if got := d.info(); got.State != "drifting" || got.Violations != 1 || got.BreachesInLastN != 1 {
		t.Fatalf("after 1 breach: %+v", got)
	}

	// Second violating window reaches K=2 of N=3: violating.
	feed(d, res(0.5, false, true), 4)
	if got := d.info(); got.State != "violating" || got.Violations != 2 {
		t.Fatalf("after 2 breaches: %+v", got)
	}

	// One clean window is not enough to clear the alert (hysteresis):
	// the last 3 verdicts are still [breach, breach, clean].
	feed(d, res(0.0, true, false), 4)
	if got := d.info(); got.State != "violating" {
		t.Fatalf("one clean window cleared the alert: %+v", got)
	}
	// Two clean windows leave one breach in the last 3: drifting.
	feed(d, res(0.0, true, false), 4)
	if got := d.info(); got.State != "drifting" {
		t.Fatalf("after 2 clean windows: %+v", got)
	}
	// Three clean windows clear it.
	feed(d, res(0.0, true, false), 4)
	if got := d.info(); got.State != "ok" || got.Windows != 6 || got.Violations != 2 {
		t.Fatalf("after 3 clean windows: %+v", got)
	}
}

func TestDriftFixedElementsDeliverZero(t *testing.T) {
	// Every element fires and is fixed: delivered error is 0 regardless of
	// how bad the predictions were.
	d := newDriftMonitor(DriftConfig{Window: 4, K: 1, N: 1}, 0.1)
	feed(d, res(0.9, true, false), 4)
	if got := d.info(); got.State != "ok" || got.LastEstimate != 0 {
		t.Fatalf("fixed window: %+v", got)
	}
}

func TestDriftObservedCalibration(t *testing.T) {
	d := newDriftMonitor(DriftConfig{Window: 4, K: 1, N: 1}, 0.1)
	// Four re-executed elements: two true positives (observed error above
	// target), two false positives (checker fired, true error inside).
	d.note([]core.StreamResult{
		resObserved(0.5, 0.4, true),
		resObserved(0.5, 0.3, true),
		resObserved(0.5, 0.01, true),
		resObserved(0.5, 0.02, true),
	})
	got := d.info()
	if got.ObservedSamples != 4 {
		t.Fatalf("observed samples = %d, want 4", got.ObservedSamples)
	}
	if got.FalsePositiveRate != 0.5 {
		t.Fatalf("false positive rate = %v, want 0.5", got.FalsePositiveRate)
	}
	if want := (0.4 + 0.3 + 0.01 + 0.02) / 4; got.LastObserved != want {
		t.Fatalf("last observed = %v, want %v", got.LastObserved, want)
	}
}

func TestDriftConfigDefaults(t *testing.T) {
	cfg := DriftConfig{}.withDefaults()
	if cfg.Window != 256 || cfg.K != 3 || cfg.N != 5 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if c := (DriftConfig{K: 9, N: 2}).withDefaults(); c.K != 2 {
		t.Fatalf("K not clamped to N: %+v", c)
	}
	var nilMon *driftMonitor
	nilMon.note([]core.StreamResult{res(1, false, false)})
	if nilMon.info() != nil {
		t.Fatal("nil monitor not inert")
	}
}

// TestTraceEndToEnd is the tentpole acceptance path: a request served with
// tracing enabled yields a retrievable trace containing admission, stream
// chunk, accelerator invoke, merge, and recovery spans. Recovery is traced
// at chunk granularity: one exec.recover span per chunk that fired, carrying
// the chunk's fired, fixed and degraded counts and its observed-error
// sample; a degraded element flags the whole trace.
func TestTraceEndToEnd(t *testing.T) {
	inputs := make([][]float64, 8)
	for i := range inputs {
		score := 0.0
		if i == 3 {
			score = 0.75 // one element of chunk 0 fires
		}
		inputs[i] = in(float64(i), score)
	}
	serve := func(t *testing.T, k *Kernel) (InvokeResponse, trace.Snapshot, trace.SpanSnapshot) {
		t.Helper()
		_, hs := newTestServer(t, Options{TraceCapacity: 16, BatchSize: 4}, k)
		status, resp, _ := invoke(t, hs.URL, InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: inputs})
		if status != http.StatusOK {
			t.Fatalf("invoke: status %d", status)
		}
		var dump trace.Dump
		getJSON(t, hs.URL+"/debug/rumba/traces", http.StatusOK, &dump)
		if len(dump.Traces) != 1 {
			t.Fatalf("recorded %d traces, want 1", len(dump.Traces))
		}
		tr := dump.Traces[0]
		spans := map[string]int{}
		var rec trace.SpanSnapshot
		for _, sp := range tr.Spans {
			spans[sp.Name]++
			if sp.Name == "exec.recover" {
				rec = sp
			}
		}
		for _, want := range []string{"invoke", "admission", "stream", "stream.chunk", "accel.invoke", "exec.recover", "merge.commit"} {
			if spans[want] == 0 {
				t.Fatalf("trace lacks %q span; got %v", want, spans)
			}
		}
		// 8 elements at BatchSize 4: two chunks, each with its own
		// accelerator invoke, and one recovery span for the chunk that fired.
		if spans["stream.chunk"] != 2 || spans["accel.invoke"] != 2 || spans["exec.recover"] != 1 {
			t.Fatalf("chunking spans = %v, want 2 chunks / 2 invokes / 1 recovery", spans)
		}
		// Root span carries the request identity.
		root := tr.Spans[0]
		if root.Name != "invoke" || root.Attrs["tenant"] != "acme" || root.Attrs["kernel"] != "synth" {
			t.Fatalf("root span = %+v", root)
		}
		// JSON numbers decode as float64.
		if rec.Attrs["fired"] != 1.0 {
			t.Fatalf("recover span = %+v, want fired 1", rec)
		}
		return resp, tr, rec
	}

	t.Run("fixed", func(t *testing.T) {
		resp, tr, rec := serve(t, synthKernel("synth", synthExec{}))
		if resp.Fixed != 1 || len(tr.Flags) != 0 {
			t.Fatalf("fixed %d, flags %v; want 1 fixed and an unflagged trace", resp.Fixed, tr.Flags)
		}
		if rec.Attrs["fixed"] != 1.0 || rec.Attrs["degraded"] != 0.0 {
			t.Fatalf("recover span = %+v, want fixed 1, degraded 0", rec)
		}
		// The one fixed element is the chunk's ground-truth sample.
		sum, okSum := rec.Attrs["observed_error_sum"].(float64)
		errMax, okMax := rec.Attrs["observed_error_max"].(float64)
		if !okSum || !okMax || sum != errMax || sum <= 0 {
			t.Fatalf("recover span = %+v, want one positive observed-error sample", rec)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		k := synthKernel("synth", synthExec{})
		k.Spec.Exact = func(in []float64) []float64 { panic("recovery unavailable") }
		resp, tr, rec := serve(t, k)
		if resp.DegradedElements != 1 {
			t.Fatalf("degraded %d elements, want 1", resp.DegradedElements)
		}
		if !strings.Contains(strings.Join(tr.Flags, ","), "degraded") {
			t.Fatalf("trace flags = %v, want degraded", tr.Flags)
		}
		if d, _ := rec.Attrs["degraded"].(float64); d < 1 || rec.Attrs["fixed"] != 0.0 {
			t.Fatalf("recover span = %+v, want degraded >= 1, fixed 0", rec)
		}
	})
}

func TestTracesDisabledByDefault(t *testing.T) {
	_, hs := newTestServer(t, Options{}, synthKernel("synth", synthExec{}))
	if status, _, _ := invoke(t, hs.URL, InvokeRequest{Kernel: "synth", Inputs: [][]float64{in(1, 0)}}); status != 200 {
		t.Fatalf("invoke failed")
	}
	resp, err := http.Get(hs.URL + "/debug/rumba/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traces endpoint with tracing off: status %d, want 404", resp.StatusCode)
	}
}

// TestDriftViolationEndToEnd drives a tenant past its TOQ: the exact kernel
// panics, so every fired element degrades and ships its (large) predicted
// error. Four 16-element windows close inside one request; 4 >= K=3 breaches
// flip the monitor to violating, visible in the health endpoint, the tenant
// listing, the drift gauges, and the trace flags.
func TestDriftViolationEndToEnd(t *testing.T) {
	k := synthKernel("synth", synthExec{})
	k.Spec.Exact = func(in []float64) []float64 { panic("recovery unavailable") }
	s, hs := newTestServer(t, Options{
		TraceCapacity: 8,
		Drift:         DriftConfig{Window: 16, K: 3, N: 5},
	}, k)

	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = in(float64(i), 0.5) // every element fires, none recover
	}
	status, resp, _ := invoke(t, hs.URL, InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: inputs})
	if status != http.StatusOK || resp.DegradedElements != 64 {
		t.Fatalf("invoke: status %d degraded %d, want 200/64", status, resp.DegradedElements)
	}

	var health TenantHealth
	getJSON(t, hs.URL+"/v1/tenants/acme/health", http.StatusOK, &health)
	if health.Healthy || len(health.Kernels) != 1 {
		t.Fatalf("health = %+v, want unhealthy with 1 kernel", health)
	}
	drift := health.Kernels[0].Drift
	if drift == nil || drift.State != "violating" {
		t.Fatalf("drift = %+v, want violating", drift)
	}
	if drift.Windows != 4 || drift.Violations != 4 || drift.LastEstimate != 0.5 {
		t.Fatalf("drift accounting = %+v", drift)
	}

	// The violating trace was flagged always-keep.
	var dump trace.Dump
	getJSON(t, hs.URL+"/debug/rumba/traces?flagged=1", http.StatusOK, &dump)
	if len(dump.Traces) != 1 {
		t.Fatalf("flagged traces = %d, want 1", len(dump.Traces))
	}
	flags := strings.Join(dump.Traces[0].Flags, ",")
	if !strings.Contains(flags, "degraded") || !strings.Contains(flags, "violating") {
		t.Fatalf("trace flags = %q, want degraded+violating", flags)
	}

	// Drift gauges landed in the shared registry.
	snap := s.Metrics().Snapshot()
	stateKey := obs.Labeled(MetricDriftState, "tenant", "acme", "kernel", "synth")
	if g, ok := snap.Gauges[stateKey]; !ok || g.Value != 2 {
		t.Fatalf("gauge %s = %+v, want 2 (violating)", stateKey, snap.Gauges[stateKey])
	}

	// Unknown tenants 404.
	r2, err := http.Get(hs.URL + "/v1/tenants/nobody/health")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant health: status %d, want 404", r2.StatusCode)
	}
}

// TestMetricsPrometheus pins the /metrics endpoint to valid exposition
// format, with the JSON snapshot still available at /metrics.json.
func TestMetricsPrometheus(t *testing.T) {
	_, hs := newTestServer(t, Options{}, synthKernel("synth", synthExec{}))
	if status, _, _ := invoke(t, hs.URL, InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: [][]float64{in(1, 0.75)}}); status != 200 {
		t.Fatalf("invoke failed")
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"rumba_serve_requests 1",
		`rumba_tuner_threshold{kernel="synth",tenant="acme"}`,
		"# TYPE rumba_serve_latency_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out)
		}
	}
}
