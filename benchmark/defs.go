package main

// benchVersion changes whenever a workload, a metric or the way one is
// measured changes; -compare refuses results taken under different versions.
const benchVersion = 1

// workload is one traffic mix. Every field except Why is part of the stamp
// -compare matches, so results from different definitions never compare.
type workload struct {
	Name string `json:"name"`
	// Kernels are invoked in rotation, one kernel per request.
	Kernels []string `json:"kernels"`
	Elems   int      `json:"elems_per_req"`
	Tenants int      `json:"tenants"`
	// TOQ is every tenant's target output error and the TOQ its kernel
	// packages are built and validated against.
	TOQ float64 `json:"toq"`
	// Routed serves through cluster.NewHarness: a router in front of three
	// nodes, all with tracing, drift, the SLO engine and a metrics history.
	// Otherwise one node with default server.Options and observability off.
	Routed bool `json:"routed"`
	// RateRPS is the paced phase's Poisson arrival rate, frozen so that
	// paced latency is always taken at the same offered load: about 20% of
	// the capacity measured on a 2-vCPU VM (40% for bulk-detect), the loads
	// at which ten seeds gave the steadiest latency.
	RateRPS float64 `json:"rate_rps"`
	Why     string  `json:"-"`
}

var workloads = []workload{
	{
		Name: "small-many-tenants", Kernels: []string{"fft"}, Elems: 8, Tenants: 32, TOQ: 0.10, RateRPS: 4200,
		Why: "8-element fft requests over 32 tenants: per-request costs (HTTP, JSON, admission, tenant lock, per-request Stream) dominate, not compute",
	},
	{
		Name: "bulk-detect", Kernels: []string{"jmeint"}, Elems: 1024, Tenants: 2, TOQ: 0.40, RateRPS: 120,
		Why: "1024-element jmeint requests firing ~5%: per-element work (JSON float parsing, the 18-32-2-2 forward pass, the tree checker) outweighs per-request costs",
	},
	{
		Name: "recover-heavy", Kernels: []string{"blackscholes"}, Elems: 256, Tenants: 4, TOQ: 0.05, RateRPS: 500,
		Why: "256-element blackscholes requests firing ~68%: most elements take the recovery path (queue, exact re-execution, merge)",
	},
	{
		Name: "routed-observed", Kernels: []string{"fft", "blackscholes"}, Elems: 64, Tenants: 32, TOQ: 0.10, Routed: true, RateRPS: 1000,
		Why: "fft and blackscholes via a router to 3 nodes with tracing, drift, SLO and history on: the only mix running the router hop and observability",
	},
}

// gate says how an end-to-end metric is held.
type gate int

const (
	// gated metrics are listed in BENCHMARK.json; -compare fails on a
	// regression or an unresolved spread.
	gated gate = iota
	// invariant metrics are 0 on a healthy run. Every run is checked against
	// Abs (a run past it is not correct) and -compare fails on a
	// regression, but BENCHMARK.json leaves them out: a relative bound on 0
	// means nothing.
	invariant
	// informational metrics are measured, printed and compared, but never
	// fail -compare and stay out of BENCHMARK.json: across ten seeds on a
	// 2-vCPU VM, whose own speed drifts, their spread on some workload
	// reached 26-47% of the median, past any bound the gate allows.
	informational
)

// metricDef is one end-to-end metric. A new median regresses when it is worse
// than the base median by more than the larger of Rel x base median and Abs.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Rel    float64
	Abs    float64
	Gate   gate
}

var e2eMetrics = []metricDef{
	{Name: "output_error", Unit: "ratio", Better: "lower", Rel: 0.10, Abs: 0.002},
	{Name: "setup_s", Unit: "s", Better: "lower", Rel: 0.25, Abs: 0.05},
	{Name: "heap_peak_mb", Unit: "MiB", Better: "lower", Rel: 0.10, Abs: 4},
	{Name: "error_frac", Unit: "ratio", Better: "lower", Gate: invariant},
	{Name: "degraded_frac", Unit: "ratio", Better: "lower", Abs: 0.005, Gate: invariant},
	{Name: "throughput_eps", Unit: "elements/s", Better: "higher", Rel: 0.25, Gate: informational},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Rel: 0.25, Abs: 0.02, Gate: informational},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Rel: 0.25, Abs: 0.05, Gate: informational},
}

// layerMetric is one per-layer metric, with the layer it reads and the
// end-to-end metric and workload it should move.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string
}

var layerMetrics = []layerMetric{
	{"accel.ns_per_elem", "ns", "lower", "accel", "throughput_eps on bulk-detect; no change on small-many-tenants"},
	{"accel.allocs_per_call", "count", "lower", "accel", "throughput_eps on bulk-detect"},
	{"predictor.ns_per_elem", "ns", "lower", "predictor", "throughput_eps on bulk-detect"},
	{"predictor.over_accel", "ratio", "lower", "predictor", "throughput_eps on bulk-detect (Fig. 17 says < 1)"},
	{"exact.ns_per_fire", "ns", "lower", "bench", "throughput_eps on recover-heavy"},
	{"core.ns_per_req", "ns", "lower", "core", "throughput_eps, latency_p50_ms on small-many-tenants and recover-heavy; no change on bulk-detect"},
	{"core.self_ns_per_req", "ns", "lower", "core", "throughput_eps, latency_p50_ms on small-many-tenants and recover-heavy"},
	{"core.allocs_per_req", "count", "lower", "core", "throughput_eps on small-many-tenants"},
	{"core.bytes_per_req", "bytes", "lower", "core", "heap_peak_mb, throughput_eps on small-many-tenants"},
	{"core.fire_rate", "ratio", "lower", "core", "output_error, throughput_eps on recover-heavy"},
	{"core.fix_rate", "ratio", "lower", "core", "output_error, throughput_eps on recover-heavy"},
	{"core.degraded_rate", "ratio", "lower", "core", "degraded_frac, output_error on all"},
	{"core.detect_ns_mean", "ns", "lower", "core", "throughput_eps on bulk-detect"},
	{"core.recover_ns_mean", "ns", "lower", "core", "throughput_eps on recover-heavy"},
	{"server.handler_ns_per_req", "ns", "lower", "server", "throughput_eps on small-many-tenants and bulk-detect"},
	{"server.self_ns_per_req", "ns", "lower", "server", "throughput_eps on small-many-tenants"},
	{"server.decode_ns_per_req", "ns", "lower", "server", "throughput_eps on bulk-detect (float parsing)"},
	{"server.encode_ns_per_req", "ns", "lower", "server", "throughput_eps on small-many-tenants and bulk-detect"},
	{"server.allocs_per_req", "count", "lower", "server", "throughput_eps on small-many-tenants"},
	{"server.admitted_latency_ms_mean", "ms", "lower", "server", "latency_p90_ms on all"},
	{"server.queue_stalls", "count", "lower", "server", "latency_p90_ms, degraded_frac on all"},
	{"server.shed", "count", "lower", "server", "degraded_frac on all"},
	{"http.self_ns_per_req", "ns", "lower", "net/http", "latency_p50_ms on small-many-tenants"},
	{"cluster.route_ns_per_req", "ns", "lower", "cluster", "throughput_eps, latency_p50_ms on routed-observed only"},
	{"cluster.self_ns_per_req", "ns", "lower", "cluster", "throughput_eps, latency_p50_ms on routed-observed only"},
	{"cluster.forwards", "count", "higher", "cluster", "throughput_eps on routed-observed only"},
	{"cluster.failovers", "count", "lower", "cluster", "error_frac, latency_p90_ms on routed-observed only"},
	{"obs.overhead_ns_per_req", "ns", "lower", "trace/obs/slo", "throughput_eps, latency_p50_ms on routed-observed only"},
	{"trace.recorded_frac", "ratio", "lower", "trace", "throughput_eps on routed-observed only"},
	{"runtime.alloc_bytes_per_req", "bytes", "lower", "Go runtime", "latency_p90_ms, heap_peak_mb on all"},
	{"runtime.gc_per_s", "1/s", "lower", "Go runtime", "latency_p90_ms, heap_peak_mb on all"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", "Go runtime", "latency_p90_ms on all"},
	{"loadgen.lag_p99_ms", "ms", "lower", "loadgen", "validity of the paced numbers; not a program metric"},
	{"loadgen.backlog_max", "count", "lower", "loadgen", "validity of the paced numbers; not a program metric"},
}

// e2eDef returns the end-to-end metric named name.
func e2eDef(name string) (metricDef, bool) {
	for _, m := range e2eMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// unitOf returns the unit of an end-to-end or per-layer metric.
func unitOf(name string) string {
	if m, ok := e2eDef(name); ok {
		return m.Unit
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// allWorkloads returns every workload, in order.
func allWorkloads() []*workload {
	all := make([]*workload, len(workloads))
	for i := range workloads {
		all[i] = &workloads[i]
	}
	return all
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
