package server

import (
	"fmt"
	"sort"
	"sync"

	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/predictor"
	"rumba/internal/tune"
)

// TenantKey identifies one tenant's use of one kernel — the granularity at
// which online quality control runs. Two tenants invoking the same kernel
// get independent tuners: one tenant's bursty, hard-to-approximate traffic
// must not raise the firing threshold for everyone else.
type TenantKey struct {
	Tenant string
	Kernel string
}

// TunerDefaults configures the tuner a new tenant starts with when the
// creating request does not choose a mode.
type TunerDefaults struct {
	Mode   core.TunerMode
	Target float64
}

// tenant is the live state of one tenant×kernel: its engine, a core.Stream
// over its private executor, checker and tuner that every request continues,
// so how its elements are cut into requests does not change its results. mu
// serialises the tenant's requests — the engine must see its elements in
// order — while different tenants proceed in parallel.
type tenant struct {
	mu sync.Mutex

	key         TenantKey
	checkerName string
	engine      *core.Stream
	tuner       *core.Tuner
	// drift watches the delivered quality against the tenant's target (nil
	// for unchecked tenants — without a checker there is no error estimate
	// to monitor).
	drift *driftMonitor
	// point is the frontier operating point selected for this tenant (nil
	// when no frontier is loaded or no point qualifies); pointIndex is its
	// index within the kernel's frontier (the tune.selected_point gauge) and
	// batch the engine's detection chunk width, the point's or the server's.
	point      *tune.Point
	pointIndex int
	batch      int

	elements, fixed, degraded int64

	// Error-budget feeds for the SLO burn-rate engine (internal/slo), all
	// cumulative: requests served vs shed by admission, and stream chunks
	// processed vs slower than the kernel package's p99 latency SLO. Guarded
	// by mu like the stats above.
	reqTotal, reqShed     int64
	chunkTotal, chunkSlow int64

	// gauges caches the tenant's labelled gauges (Server.gauge), each
	// resolved on its first publish; they go away with the tenant.
	gauges [numTenantGauges]*obs.Gauge
}

// tenantGauge indexes a tenant's labelled gauges, which are named by
// tenantGaugeNames and labelled by tenant and kernel.
type tenantGauge int

const (
	gaugeThreshold tenantGauge = iota
	gaugePredictedError
	gaugeTuneSelected
	gaugeTunePredictedNs
	gaugeTuneDeliveredNs
	gaugeDriftState
	gaugeDriftEstimate
	gaugeDriftObserved
	gaugeDriftWindows
	gaugeDriftViolations
	numTenantGauges
)

var tenantGaugeNames = [numTenantGauges]string{
	gaugeThreshold:       core.MetricThreshold,
	gaugePredictedError:  "serve.predicted_error",
	gaugeTuneSelected:    MetricTuneSelected,
	gaugeTunePredictedNs: MetricTunePredictedNs,
	gaugeTuneDeliveredNs: MetricTuneDeliveredNs,
	gaugeDriftState:      MetricDriftState,
	gaugeDriftEstimate:   MetricDriftEstimate,
	gaugeDriftObserved:   MetricDriftObserved,
	gaugeDriftWindows:    MetricDriftWindows,
	gaugeDriftViolations: MetricDriftViolations,
}

// Tenants keeps one live tenant per tenant×kernel and creates them on first
// use.
type Tenants struct {
	mu sync.Mutex
	m  map[TenantKey]*tenant

	defaults TunerDefaults
	// engine is every tenant engine's configuration before the tenant's own
	// kernel, executor, checker, tuner and batch; workers its recovery fan-out.
	engine  core.Config
	workers int
	drift   DriftConfig
	// frontier, when non-nil, drives per-tenant operating-point selection
	// (see tune.go).
	frontier *tune.Frontier
}

// MaxInvocationSize bounds Options.InvocationSize, and so every carry an
// engine is left in: a tenant restore refuses a larger carry, so every
// snapshot a server writes restores and no engine's element count can
// overflow.
const MaxInvocationSize = 1 << 30

// NewTenants builds a tenant manager. invocationSize <= 0 uses the paper's
// 512-element invocation batches.
func NewTenants(defaults TunerDefaults, invocationSize int) *Tenants {
	if invocationSize <= 0 {
		invocationSize = 512
	}
	return &Tenants{
		m:        make(map[TenantKey]*tenant),
		defaults: defaults,
		engine:   core.Config{InvocationSize: invocationSize},
		drift:    DriftConfig{}.withDefaults(),
	}
}

// get returns the live tenant for key, creating it on first use. checkerName
// and mode/target apply only at creation ("" / nil keep the kernel default
// and the manager defaults); an existing tenant's request asking for a
// different checker is an error — the checker choice is part of the tenant's
// identity, not a per-request knob.
func (t *Tenants) get(key TenantKey, k *Kernel, checkerName string, mode *TunerDefaults) (*tenant, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts, ok := t.m[key]; ok {
		if checkerName != "" && checkerName != ts.checkerName {
			return nil, fmt.Errorf("server: tenant %s/%s already uses checker %q, cannot switch to %q",
				key.Tenant, key.Kernel, ts.checkerName, checkerName)
		}
		return ts, nil
	}
	ts, err := t.create(key, k, checkerName, mode)
	if err != nil {
		return nil, err
	}
	t.m[key] = ts
	return ts, nil
}

// create builds a fresh tenant (caller holds t.mu).
func (t *Tenants) create(key TenantKey, k *Kernel, checkerName string, mode *TunerDefaults) (*tenant, error) {
	d := t.defaults
	if mode != nil {
		d = *mode
	}
	target := t.frontierTarget(d)
	if checkerName == "" {
		// A loaded frontier may pick the checker family along with the rest
		// of the operating point; an explicit request choice always wins.
		checkerName = t.adoptChecker(k, target)
	}
	checker, err := k.NewChecker(checkerName)
	if err != nil {
		return nil, err
	}
	if checkerName == "" {
		checkerName = k.DefaultChecker
		if checkerName == "" {
			checkerName = "none"
		}
	}
	var tuner *core.Tuner
	if checker != nil {
		if tuner, err = core.NewTuner(d.Mode, d.Target); err != nil {
			return nil, err
		}
	}
	return t.build(key, k, checkerName, checker, tuner, nil, target)
}

// build makes a tenant of kernel k around a fresh executor, its checker and
// its tuner (both nil when unchecked), selects its operating point for the
// quality bound target, and starts its engine, which lives as long as the
// tenant. A checked tenant without a drift monitor gets a fresh one. Caller
// holds t.mu; the tenant is not yet visible.
func (t *Tenants) build(key TenantKey, k *Kernel, checkerName string, checker predictor.Predictor,
	tuner *core.Tuner, drift *driftMonitor, target float64) (*tenant, error) {
	acc, err := k.NewAccel()
	if err != nil {
		return nil, err
	}
	ts := &tenant{key: key, checkerName: checkerName, tuner: tuner, drift: drift, batch: t.engine.BatchSize}
	t.applyFrontier(ts, k, acc, target)
	if checker != nil && drift == nil {
		// The drift monitor holds delivered quality against the tightest
		// target available: the TOQ error bound when the tuner has one, the
		// manager default otherwise (energy/quality modes tune to budgets,
		// not error bounds, but the tenant still deserves a quality alarm).
		bound := tuner.TargetError
		if bound <= 0 {
			bound = t.defaults.Target
		}
		ts.drift = newDriftMonitor(t.drift, bound)
	}
	cfg := t.engine
	cfg.Spec, cfg.Accel, cfg.Checker, cfg.Tuner, cfg.BatchSize = k.Spec, acc, checker, tuner, ts.batch
	ts.engine, err = core.NewStream(cfg, t.workers)
	return ts, err
}

// noteResults folds one finished request into the tenant's lifetime stats
// and its drift monitor. Caller holds ts.mu.
func (ts *tenant) noteResults(results []core.StreamResult) {
	for _, r := range results {
		if r.Fixed {
			ts.fixed++
		}
		if r.Degraded {
			ts.degraded++
		}
	}
	ts.elements += int64(len(results))
	ts.drift.note(results)
}

// TenantInfo is the ops-facing view of one live tenant (the /v1/tenants
// listing and the persistence integration tests read it).
type TenantInfo struct {
	Tenant    string  `json:"tenant"`
	Kernel    string  `json:"kernel"`
	Checker   string  `json:"checker"`
	Mode      string  `json:"mode,omitempty"`
	Threshold float64 `json:"threshold"`
	Elements  int64   `json:"elements"`
	Fixed     int64   `json:"fixed"`
	Degraded  int64   `json:"degraded"`
	// TunePoint is the frontier operating point serving this tenant
	// (tune.Point.Key(), e.g. "fixed/lut10/b64/tree"); empty when no
	// frontier is loaded or no point qualified. BatchSize is the tenant's
	// detection chunk width under that point.
	TunePoint string `json:"tunePoint,omitempty"`
	BatchSize int    `json:"batchSize,omitempty"`
	// Drift is the quality-drift monitor state (nil for unchecked tenants).
	Drift *DriftInfo `json:"drift,omitempty"`
}

// List snapshots every live tenant, sorted by tenant then kernel.
func (t *Tenants) List() []TenantInfo {
	t.mu.Lock()
	tenants := make([]*tenant, 0, len(t.m))
	for _, ts := range t.m {
		tenants = append(tenants, ts)
	}
	t.mu.Unlock()
	infos := make([]TenantInfo, 0, len(tenants))
	for _, ts := range tenants {
		ts.mu.Lock()
		info := TenantInfo{
			Tenant:   ts.key.Tenant,
			Kernel:   ts.key.Kernel,
			Checker:  ts.checkerName,
			Elements: ts.elements,
			Fixed:    ts.fixed,
			Degraded: ts.degraded,
		}
		if ts.tuner != nil {
			info.Mode = ts.tuner.Mode.String()
			info.Threshold = ts.tuner.Threshold
		}
		if ts.point != nil {
			info.TunePoint = ts.point.Key()
			info.BatchSize = ts.batch
		}
		info.Drift = ts.drift.info()
		ts.mu.Unlock()
		infos = append(infos, info)
	}
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].Tenant != infos[b].Tenant {
			return infos[a].Tenant < infos[b].Tenant
		}
		return infos[a].Kernel < infos[b].Kernel
	})
	return infos
}
