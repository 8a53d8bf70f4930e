package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rumba/internal/bundle"
	"rumba/internal/server"
)

// testPhases keeps every workload well under a second of load.
var testPhases = phases{warm: 100 * time.Millisecond, measure: 300 * time.Millisecond, setupReps: 1, ladderReqs: 6}

// TestSmoke runs every workload traced, so both phases, verification and
// the ladder run, then round-trips the results through -compare. It checks
// structure and correctness, never speed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bundles := map[string]*bundle.Bundle{}
	var results []*workloadResult
	for i := range workloads {
		w := &workloads[i]
		res, lad, err := runWorkload(w, 1, testPhases, dir, bundles, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		results = append(results, res)
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, d := range e2eMetrics {
			v, ok := res.Metrics[d.Name]
			switch {
			case !ok || math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s: end-to-end metric %s missing or not finite: %v", w.Name, d.Name, v)
			case d.Gate == invariant && v > d.Abs:
				t.Errorf("%s: %s = %v, want <= %v", w.Name, d.Name, v, d.Abs)
			case d.Gate != invariant && v <= 0:
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
		if res.Metrics["output_error"] > w.TOQ {
			t.Errorf("%s: output error %v exceeds the TOQ %v", w.Name, res.Metrics["output_error"], w.TOQ)
		}
		for _, d := range layerMetrics {
			if v, ok := res.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s missing or not finite: %v", w.Name, d.Name, v)
			}
		}
		checkSpans(t, w, lad)
	}

	base := filepath.Join(dir, "base.json")
	if err := writeJSON(base, resultFile{Stamp: newStamp(1, 1, allWorkloads()), Results: results}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-compare", "-base", base + "," + base, "-new", base}, &out, &out); code != 0 {
		t.Fatalf("compare of a result with itself: exit %d\n%s", code, out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.Name) {
			t.Errorf("compare output does not mention %s:\n%s", w.Name, out.String())
		}
	}
}

// checkSpans asserts the ladder recorded one span per request for every
// rung of the workload's tree, each linked to its parent's span.
func checkSpans(t *testing.T, w *workload, lad *ladderResult) {
	t.Helper()
	want := []string{"e2e", "server.handler", "server.decode", "core.stream", "accel.invoke_batch",
		"predictor.predict_batch", "bench.exact", "server.encode"}
	if w.Routed {
		want = append(want, "cluster.route", "node.post")
	}
	byID := map[int]span{}
	count := map[string]int{}
	for _, s := range lad.Spans {
		byID[s.ID] = s
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", w.Name, s.Name)
		}
	}
	for _, name := range want {
		if count[name] != lad.Requests {
			t.Errorf("%s: %d %s spans, want %d", w.Name, count[name], name, lad.Requests)
		}
	}
	for _, s := range lad.Spans {
		if s.Parent == noParent {
			if s.Name != "e2e" {
				t.Errorf("%s: span %s has no parent", w.Name, s.Name)
			}
			continue
		}
		if p, ok := byID[s.Parent]; !ok || p.Req != s.Req {
			t.Errorf("%s: span %s of request %d does not link to a span of its request", w.Name, s.Name, s.Req)
		}
	}
}

// TestVerifyRejectsTampered feeds the verifier a correct response and
// tampered copies of it.
func TestVerifyRejectsTampered(t *testing.T) {
	w := findWorkload("small-many-tenants")
	_, kernels, err := buildPackages(w, t.TempDir(), map[string]*bundle.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVerifier(kernels)
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels[0].spec
	inputs := spec.GenTest(4).Inputs
	acc, err := kernels[0].newAccel()
	if err != nil {
		t.Fatal(err)
	}
	good := func() server.InvokeResponse {
		r := server.InvokeResponse{Elements: len(inputs), Fixed: 1}
		for i, in := range inputs {
			if i == 0 {
				r.Outputs = append(r.Outputs, spec.Exact(in))
			} else {
				r.Outputs = append(r.Outputs, acc.Invoke(in))
			}
		}
		return r
	}
	encode := func(r server.InvokeResponse) []byte {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := v.check(0, inputs, encode(good())); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	for name, tamper := range map[string]func(*server.InvokeResponse){
		"output off by one ulp": func(r *server.InvokeResponse) { r.Outputs[1][0] = math.Nextafter(r.Outputs[1][0], 2) },
		"fixed overstated":      func(r *server.InvokeResponse) { r.Fixed = 2 },
		"fixed understated":     func(r *server.InvokeResponse) { r.Fixed = 0 },
		"element dropped":       func(r *server.InvokeResponse) { r.Outputs, r.Elements = r.Outputs[1:], r.Elements-1 },
		"element count wrong":   func(r *server.InvokeResponse) { r.Elements++ },
	} {
		r := good()
		tamper(&r)
		if err := v.check(0, inputs, encode(r)); err == nil {
			t.Errorf("%s: tampered response accepted", name)
		}
	}
	if err := v.check(0, inputs, []byte("{")); err == nil {
		t.Error("undecodable response accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	metric := func(name string) metricDef {
		d, ok := e2eDef(name)
		if !ok {
			t.Fatalf("no metric %s", name)
		}
		return d
	}
	for _, c := range []struct {
		name, metric string
		base, cur    []float64
		want         string
	}{
		{"unchanged", "throughput_eps", []float64{100, 101, 99, 100}, []float64{100, 99, 101, 100}, "ok"},
		{"slower beyond bound", "throughput_eps", []float64{100, 101, 99, 100}, []float64{60, 61, 59, 60}, "regression"},
		{"slower within bound", "latency_p50_ms", []float64{1.00, 1.01, 0.99, 1.00}, []float64{1.05, 1.06, 1.04, 1.05}, "ok"},
		{"every new run better", "throughput_eps", []float64{100, 101, 99, 100}, []float64{200, 201, 199, 200}, "better"},
		{"wide spread", "throughput_eps", []float64{50, 150, 60, 140}, []float64{100, 101, 99, 100}, "unresolved"},
		{"absolute part of the bound", "latency_p50_ms", []float64{0.010, 0.010, 0.010}, []float64{0.020, 0.020, 0.020}, "ok"},
		{"no failures", "error_frac", []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{"new failures", "error_frac", []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, "regression"},
	} {
		if got, _ := verdict(metric(c.metric), c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareGate checks the exit status on synthetic result files and that
// mismatched stamps are refused.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	w := workloads[0]
	file := func(name string, heap float64, edit func(*stamp)) string {
		st := newStamp(1, 16, []*workload{&w})
		if edit != nil {
			edit(&st)
		}
		res := &workloadResult{Workload: w.Name, Correct: true, Attempted: 10, Metrics: map[string]float64{}}
		for _, d := range e2eMetrics {
			res.Metrics[d.Name] = 1
		}
		res.Metrics["error_frac"], res.Metrics["degraded_frac"] = 0, 0
		res.Metrics["heap_peak_mb"] = heap
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Stamp: st, Results: []*workloadResult{res}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base1.json", 100, nil) + "," + file("base2.json", 101, nil)
	for _, c := range []struct {
		name string
		new  string
		code int
	}{
		{"same", file("same.json", 100.5, nil), 0},
		{"regression", file("big.json", 200, nil), 1},
		{"other GOMAXPROCS", file("procs.json", 100, func(s *stamp) { s.GOMAXPROCS++ }), 2},
		{"other version", file("version.json", 100, func(s *stamp) { s.Version++ }), 2},
		{"other workload definition", file("def.json", 100, func(s *stamp) { s.Workloads[0].RateRPS++ }), 2},
	} {
		var out bytes.Buffer
		if code := run([]string{"-compare", "-base", base, "-new", c.new}, &out, &out); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out.String())
		}
	}
}

// TestBenchmarkJSONInSync fails when BENCHMARK.json's workloads, metrics,
// units, directions or bounds drift from the definitions in this package.
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark defines %s: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var e2e []metric
	for _, d := range e2eMetrics {
		if d.Gate == gated {
			bound := d.Rel
			e2e = append(e2e, metric{d.Name, d.Unit, d.Better, &bound})
		}
	}
	var layer []metric
	for _, d := range layerMetrics {
		layer = append(layer, metric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	for _, c := range []struct {
		section   string
		got, want []metric
	}{{"end_to_end", doc.EndToEnd, e2e}, {"per_layer", doc.PerLayer, layer}} {
		got, _ := json.Marshal(c.got)
		want, _ := json.Marshal(c.want)
		if !bytes.Equal(got, want) {
			t.Errorf("%s in BENCHMARK.json:\n%s\nthe benchmark defines:\n%s", c.section, got, want)
		}
	}
	setupBound := 0.0
	for _, m := range e2e {
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 {
		t.Error("the gated end-to-end metrics must include setup_s")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metric(nil), e2e...), layer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %s (%s): name or unit outside the allowed characters", m.Name, m.Unit)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound > setupBound) {
			t.Errorf("metric %s: bound %v must be in (0, 0.25] and at most setup_s's", m.Name, *m.Bound)
		}
	}
	if doc.RunSeconds < 2 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
}
