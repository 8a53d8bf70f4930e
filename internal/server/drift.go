package server

import (
	"rumba/internal/core"
)

// This file is the per-tenant quality-drift monitor: a windowed estimator of
// the error actually delivered to the tenant, with a k-of-n alert state
// machine over it. The tuner holds the firing threshold near the target; the
// monitor answers the question the tuner cannot — is the quality the tenant
// RECEIVES still inside its TOQ bound? The two disagree exactly when the
// system drifts: the checker mispredicts, or recovery degrades under load,
// and delivered error rises while the threshold looks healthy.
//
// Per delivered element the monitor estimates the element's residual error:
//
//   - not fired:  the checker's prediction (the element shipped approximate,
//     and the prediction is the only error estimate that exists for it)
//   - fixed:      0 (the exact result shipped)
//   - degraded:   the checker's prediction (it fired — the checker itself
//     says the element was bad — but the approximate output shipped anyway)
//
// Elements that recovery re-executed also carry a ground-truth sample
// (core.StreamResult.ObservedError: the approximate output scored against
// the exact recomputation). Those calibrate the checker: the observed mean
// and the false-positive rate (fired, but true error was inside the target)
// are exported alongside the estimate.
//
// Every Window delivered elements the mean estimate is compared against the
// tenant's target error; a window above target is a violation. The verdicts
// of the last N windows drive the state machine:
//
//	ok        no violations among the last N windows
//	drifting  1..K-1 violations — quality is sliding, not yet actionable
//	violating >= K of the last N windows breached — page somebody
//
// K-of-n hysteresis means one bursty window cannot flip the alert, and one
// clean window cannot clear it.

// Drift metric names, published per tenant×kernel as labelled gauges.
const (
	// MetricDriftState gauges the alert level, the DriftState value: 0 ok,
	// 1 drifting, 2 violating.
	MetricDriftState = "drift.state"
	// MetricDriftEstimate gauges the last window's mean delivered-error
	// estimate.
	MetricDriftEstimate = "drift.estimate"
	// MetricDriftObserved gauges the last window's mean ground-truth error
	// over re-executed elements.
	MetricDriftObserved = "drift.observed_error"
	// MetricDriftWindows gauges the lifetime closed-window total.
	MetricDriftWindows = "drift.windows"
	// MetricDriftViolations gauges the lifetime violating-window total.
	MetricDriftViolations = "drift.violations"
)

// DriftConfig configures the per-tenant quality-drift monitor.
type DriftConfig struct {
	// Window is the estimation window in delivered elements; <= 0 uses 256.
	Window int
	// K and N are the alert hysteresis: the state flips to violating when K
	// of the last N windows breached the target. <= 0 uses 3 of 5. K is
	// clamped into [1, N]; N is at most MaxDriftN.
	K, N int
}

// MaxDriftN bounds DriftConfig.N, the k-of-n verdict ring each monitor
// allocates: New refuses a larger N and a tenant restore refuses a snapshot
// with a larger ring, so every snapshot a server writes restores.
const MaxDriftN = 1024

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.N <= 0 {
		c.N = 5
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.K > c.N {
		c.K = c.N
	}
	return c
}

// DriftState is the monitor's alert level.
type DriftState int

const (
	// DriftOK: no window among the last N breached the target.
	DriftOK DriftState = iota
	// DriftDrifting: some windows breached, fewer than K.
	DriftDrifting
	// DriftViolating: at least K of the last N windows breached.
	DriftViolating
)

// String implements fmt.Stringer.
func (s DriftState) String() string {
	switch s {
	case DriftDrifting:
		return "drifting"
	case DriftViolating:
		return "violating"
	default:
		return "ok"
	}
}

// driftMonitor is the live monitor state. It has no lock of its own: it is
// owned by a tenant and every method is called under the tenant mutex, on the
// same serialised path that already orders the tuner's observations.
type driftMonitor struct {
	cfg    DriftConfig
	target float64

	// Current window accumulators.
	n       int
	estSum  float64
	obsSum  float64
	obsN    int
	fired   int
	falsePo int

	// verdicts is the k-of-n ring of closed-window breach verdicts.
	verdicts []bool
	vPos     int
	vFilled  int

	// Lifetime totals.
	windows    int64
	violations int64
	obsTotal   int64
	firedTotal int64
	fpTotal    int64
	// elemTotal/missTotal count every delivered element and the subset whose
	// delivered-error estimate exceeded the target — the cumulative good/bad
	// feed for the TOQ error budget (internal/slo). Unlike the windowed
	// verdicts these move per element, so the burn-rate engine sees a
	// violation building before the first window closes.
	elemTotal int64
	missTotal int64

	state        DriftState
	lastEstimate float64
	lastObserved float64
}

func newDriftMonitor(cfg DriftConfig, target float64) *driftMonitor {
	cfg = cfg.withDefaults()
	return &driftMonitor{cfg: cfg, target: target, verdicts: make([]bool, cfg.N)}
}

// note folds one request's delivered results into the monitor, closing as
// many windows as the batch completes. Caller holds the tenant mutex.
func (d *driftMonitor) note(results []core.StreamResult) {
	if d == nil {
		return
	}
	for _, r := range results {
		est := r.PredictedError
		if r.Fixed {
			est = 0
		}
		d.estSum += est
		d.n++
		d.elemTotal++
		if est > d.target {
			d.missTotal++
		}
		if r.Fixed || r.Degraded {
			d.fired++
		}
		if r.Observed {
			d.obsSum += r.ObservedError
			d.obsN++
			if r.ObservedError <= d.target {
				d.falsePo++
			}
		}
		if d.n >= d.cfg.Window {
			d.closeWindow()
		}
	}
}

// closeWindow scores the finished window and advances the state machine.
func (d *driftMonitor) closeWindow() {
	d.lastEstimate = d.estSum / float64(d.n)
	if d.obsN > 0 {
		d.lastObserved = d.obsSum / float64(d.obsN)
	}
	breach := d.lastEstimate > d.target
	d.windows++
	if breach {
		d.violations++
	}
	d.obsTotal += int64(d.obsN)
	d.firedTotal += int64(d.fired)
	d.fpTotal += int64(d.falsePo)

	d.verdicts[d.vPos] = breach
	d.vPos = (d.vPos + 1) % len(d.verdicts)
	if d.vFilled < len(d.verdicts) {
		d.vFilled++
	}
	breaches := 0
	for _, v := range d.verdicts[:d.vFilled] {
		if v {
			breaches++
		}
	}
	switch {
	case breaches >= d.cfg.K:
		d.state = DriftViolating
	case breaches > 0:
		d.state = DriftDrifting
	default:
		d.state = DriftOK
	}

	d.n, d.estSum, d.obsSum, d.obsN, d.fired, d.falsePo = 0, 0, 0, 0, 0, 0
}

// DriftSnapshot is the serialised monitor state that travels with a tenant:
// the closed-window verdict ring, the lifetime totals and the alert level.
// The open window's accumulators are deliberately not carried — a window is
// scored where it completes, and a handoff mid-window restarts the window on
// the new owner rather than splicing half-windows from two nodes.
type DriftSnapshot struct {
	Target float64 `json:"target"`
	Window int     `json:"window"`
	K      int     `json:"k"`
	N      int     `json:"n"`
	// Verdicts is the k-of-n ring, oldest first (the restore rebuilds the
	// ring from it in order, so ring position does not leak into the wire
	// format).
	Verdicts []bool `json:"verdicts,omitempty"`
	State    string `json:"state"`

	Windows      int64   `json:"windows"`
	Violations   int64   `json:"violations"`
	ObsTotal     int64   `json:"observedSamples"`
	FiredTotal   int64   `json:"firedTotal"`
	FPTotal      int64   `json:"falsePositives"`
	ElemTotal    int64   `json:"elemTotal,omitempty"`
	MissTotal    int64   `json:"missTotal,omitempty"`
	LastEstimate float64 `json:"lastEstimate"`
	LastObserved float64 `json:"lastObserved"`
}

// snapshot exports the monitor's closed-window state. Caller holds the
// tenant mutex. A nil monitor (unchecked tenant) exports nil.
func (d *driftMonitor) snapshot() *DriftSnapshot {
	if d == nil {
		return nil
	}
	s := &DriftSnapshot{
		Target:       d.target,
		Window:       d.cfg.Window,
		K:            d.cfg.K,
		N:            d.cfg.N,
		State:        d.state.String(),
		Windows:      d.windows,
		Violations:   d.violations,
		ObsTotal:     d.obsTotal,
		FiredTotal:   d.firedTotal,
		FPTotal:      d.fpTotal,
		ElemTotal:    d.elemTotal,
		MissTotal:    d.missTotal,
		LastEstimate: d.lastEstimate,
		LastObserved: d.lastObserved,
	}
	// Unroll the ring oldest-first: with vFilled entries the oldest sits at
	// vPos when the ring has wrapped, at 0 before that.
	start := 0
	if d.vFilled == len(d.verdicts) {
		start = d.vPos
	}
	for i := 0; i < d.vFilled; i++ {
		s.Verdicts = append(s.Verdicts, d.verdicts[(start+i)%len(d.verdicts)])
	}
	return s
}

// restoreDriftMonitor rebuilds a monitor from a snapshot, under the receiving
// tenant's configuration-independent wire state: the snapshot's own
// window/k-of-n geometry wins, so a tenant moved between nodes with different
// drift defaults keeps the alert behaviour it accumulated history under.
func restoreDriftMonitor(s *DriftSnapshot) *driftMonitor {
	if s == nil {
		return nil
	}
	d := newDriftMonitor(DriftConfig{Window: s.Window, K: s.K, N: s.N}, s.Target)
	// Replay the verdict ring oldest-first; extra entries beyond N (a
	// hand-edited snapshot) keep only the newest N.
	verdicts := s.Verdicts
	if len(verdicts) > len(d.verdicts) {
		verdicts = verdicts[len(verdicts)-len(d.verdicts):]
	}
	for _, v := range verdicts {
		d.verdicts[d.vPos] = v
		d.vPos = (d.vPos + 1) % len(d.verdicts)
		if d.vFilled < len(d.verdicts) {
			d.vFilled++
		}
	}
	d.windows = s.Windows
	d.violations = s.Violations
	d.obsTotal = s.ObsTotal
	d.firedTotal = s.FiredTotal
	d.fpTotal = s.FPTotal
	d.elemTotal = s.ElemTotal
	d.missTotal = s.MissTotal
	d.lastEstimate = s.LastEstimate
	d.lastObserved = s.LastObserved
	switch s.State {
	case "drifting":
		d.state = DriftDrifting
	case "violating":
		d.state = DriftViolating
	default:
		d.state = DriftOK
	}
	return d
}

// DriftInfo is the exported monitor state (tenant listings, the
// /v1/tenants/{id}/health endpoint, and the drift gauges).
type DriftInfo struct {
	// State is "ok", "drifting" or "violating".
	State string `json:"state"`
	// Target is the tenant's error bound the estimate is held against.
	Target float64 `json:"target"`
	// Window/K/N echo the monitor configuration.
	Window int `json:"window"`
	K      int `json:"k"`
	N      int `json:"n"`
	// Windows/Violations are lifetime closed-window totals.
	Windows    int64 `json:"windows"`
	Violations int64 `json:"violations"`
	// BreachesInLastN counts violating windows among the last N.
	BreachesInLastN int `json:"breachesInLastN"`
	// LastEstimate is the last closed window's mean delivered-error
	// estimate; LastObserved its mean ground-truth error over re-executed
	// elements (0 when none were re-executed).
	LastEstimate float64 `json:"lastEstimate"`
	LastObserved float64 `json:"lastObserved"`
	// ObservedSamples is the lifetime count of ground-truth samples;
	// FalsePositiveRate the fraction of them whose true error was inside
	// the target although the checker fired.
	ObservedSamples   int64   `json:"observedSamples"`
	FalsePositiveRate float64 `json:"falsePositiveRate"`
}

// toqTotals exports the cumulative delivered-element and TOQ-miss totals —
// the TOQ error budget's good/bad feed. Caller holds the tenant mutex.
func (d *driftMonitor) toqTotals() (total, miss int64) {
	if d == nil {
		return 0, 0
	}
	return d.elemTotal, d.missTotal
}

// info exports the monitor state. Caller holds the tenant mutex.
func (d *driftMonitor) info() *DriftInfo {
	if d == nil {
		return nil
	}
	breaches := 0
	for _, v := range d.verdicts[:d.vFilled] {
		if v {
			breaches++
		}
	}
	info := &DriftInfo{
		State:           d.state.String(),
		Target:          d.target,
		Window:          d.cfg.Window,
		K:               d.cfg.K,
		N:               d.cfg.N,
		Windows:         d.windows,
		Violations:      d.violations,
		BreachesInLastN: breaches,
		LastEstimate:    d.lastEstimate,
		LastObserved:    d.lastObserved,
		ObservedSamples: d.obsTotal,
	}
	if d.obsTotal > 0 {
		info.FalsePositiveRate = float64(d.fpTotal) / float64(d.obsTotal)
	}
	return info
}
