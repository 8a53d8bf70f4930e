package server

import (
	"rumba/internal/core"
	"rumba/internal/exec"
)

// Frontier-driven operating-point selection: when rumba-serve is started with
// a rumba-tune frontier artifact (Options.Frontier), every tenant creation
// consults it. The SLA-selection rule (tune.Frontier.Select) picks the
// cheapest frontier point whose predicted corpus error meets the tenant's TOQ
// target and whose predicted chunk latency meets the kernel's p99 SLO; the
// tenant's accelerator is switched to the point's datapath, its engine runs
// at the point's batch width, and the tune.* gauges compare the
// point's predicted cost against what the tenant actually observes.

// Observability names of the frontier selection.
const (
	// MetricTuneSelected is the per-tenant index of the selected point within
	// the kernel's frontier (labels: tenant, kernel).
	MetricTuneSelected = "tune.selected_point"
	// MetricTunePredictedNs is the selected point's predicted ns/element.
	MetricTunePredictedNs = "tune.predicted_ns_per_elem"
	// MetricTuneDeliveredNs is the delivered ns/element of the tenant's most
	// recent request (stream wall-clock over elements).
	MetricTuneDeliveredNs = "tune.delivered_ns_per_elem"
)

// datapather is the executor capability frontier points need; the NPU
// accelerator model implements it (accel.ApplyDatapath), other executors
// simply keep their default configuration.
type datapather interface {
	ApplyDatapath(name string, lutBits int) error
}

// frontierTarget resolves the quality bound a tenant's selection is held to:
// its own TOQ target when it tunes in TOQ mode, the manager default otherwise
// (energy/quality modes tune budgets, not error bounds, but the frontier
// still must not select a point that breaks the default quality contract).
func (t *Tenants) frontierTarget(d TunerDefaults) float64 {
	if d.Mode == core.ModeTOQ && d.Target > 0 {
		return d.Target
	}
	return t.defaults.Target
}

// adoptChecker reports the checker family a fresh tenant without an explicit
// choice should use: the one on the cheapest qualifying frontier point, when
// the kernel can actually build it. "" means no opinion (kernel default).
func (t *Tenants) adoptChecker(k *Kernel, target float64) string {
	if t.frontier == nil {
		return ""
	}
	pt, _, ok := t.frontier.Select(k.Name, "", target, k.P99SLOMillis*1e6)
	if !ok || !kernelHasChecker(k, pt.Checker) {
		return ""
	}
	return pt.Checker
}

func kernelHasChecker(k *Kernel, name string) bool {
	if name == "none" {
		return true
	}
	_, ok := k.Checkers[name]
	return ok
}

// applyFrontier selects the tenant's operating point — cheapest qualifying
// frontier point for its checker family and quality target — and configures
// its executor acc and batch width accordingly. No qualifying point (or an
// executor without datapath support) leaves the server defaults in place.
// It is the only place a tenant's datapath or batch width is chosen, and it
// runs before the tenant's engine is built. Caller holds whatever lock
// guards ts; the tenant is not yet visible.
func (t *Tenants) applyFrontier(ts *tenant, k *Kernel, acc exec.Executor, target float64) {
	if t.frontier == nil {
		return
	}
	pt, idx, ok := t.frontier.Select(k.Name, ts.checkerName, target, k.P99SLOMillis*1e6)
	if !ok {
		return
	}
	ap, can := acc.(datapather)
	if !can {
		return
	}
	if err := ap.ApplyDatapath(pt.Datapath, pt.LUTBits); err != nil {
		// A frontier from another build may sweep resolutions this binary
		// rejects; the tenant then serves on the default datapath.
		return
	}
	ts.point = &pt
	ts.pointIndex = idx
	if pt.Batch > 0 {
		ts.batch = pt.Batch
	}
}
