// Package slo is the burn-rate alerting engine behind the serving layer's
// per-tenant error budgets. It implements the SRE-workbook multi-window
// pattern: an alert fires only when the short window (is it burning *now*?)
// AND the long window (has it burned enough to matter?) both exceed a burn
// threshold, which is what keeps a 30-second blip from paging while a
// sustained TOQ violation pages within minutes.
//
// Rumba serves *approximate* results on purpose, so the budgets are quality
// budgets, not availability ones: the fraction of elements whose delivered
// error estimate missed the tenant's target-output-quality (TOQ), the
// fraction of stream chunks slower than the kernel package's declared p99
// SLO, and the fraction of requests shed by admission control. The serving
// layer feeds each as a pair of cumulative good/bad totals; the engine keeps
// a small timestamped sample ring per series and derives windowed burn rates
// by delta, so a node restart (counters reset to zero) is detected and the
// series restarts cleanly instead of alerting on a negative delta.
//
// Burn rate is badFraction/budgetTarget: burn 1 spends exactly the budget
// over the SLO period; the default page threshold 14.4 is the canonical
// "2% of a 30-day budget in one hour" figure, and ticket at 3 catches slow
// leaks. A series younger than a window uses its full lifetime as the window
// (cold-start semantics) — a freshly violating tenant must not get an hour
// of grace just because the slow window is an hour wide.
package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rumba/internal/obs"
)

// Budget names the three per-tenant error budgets.
const (
	BudgetTOQ     = "toq"     // elements whose delivered-error estimate missed the tenant's target
	BudgetLatency = "latency" // stream chunks slower than the package's p99 SLO
	BudgetShed    = "shed"    // requests refused by admission control
)

// Severity levels, ordered. Page means both windows burn fast enough to
// exhaust the budget long before a human would notice organically; ticket is
// a slow leak worth a look within the day.
const (
	SeverityOK     = "ok"
	SeverityTicket = "ticket"
	SeverityPage   = "page"
)

// Config tunes the engine. Zero values take the defaults noted per field.
type Config struct {
	// FastWindow is the "burning now" window (default 5m).
	FastWindow time.Duration
	// SlowWindow is the "burned enough to matter" window (default 1h).
	SlowWindow time.Duration
	// PageBurn is the burn-rate threshold both windows must exceed to page
	// (default 14.4 — 2% of a 30-day budget per hour).
	PageBurn float64
	// TicketBurn is the lower both-windows threshold for a ticket (default 3).
	TicketBurn float64
	// MinEvents is the minimum fast-window event total before a series can
	// alert; below it the burn is noise (default 10).
	MinEvents int64
	// MaxSamples bounds each series' sample ring (default 720). Record keeps
	// samples at least SlowWindow/MaxSamples apart (5s at the defaults), so
	// the ring covers the whole slow window however often a series is fed.
	MaxSamples int
}

func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.PageBurn <= 0 {
		c.PageBurn = 14.4
	}
	if c.TicketBurn <= 0 {
		c.TicketBurn = 3
	}
	if c.TicketBurn > c.PageBurn {
		c.TicketBurn = c.PageBurn
	}
	if c.MinEvents <= 0 {
		c.MinEvents = 10
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 720
	}
	return c
}

// Key identifies one budget series.
type Key struct {
	Tenant string `json:"tenant"`
	Kernel string `json:"kernel,omitempty"`
	Budget string `json:"budget"`
}

// sample is one cumulative reading: good and bad event totals since the
// series (or the process) was born.
type sample struct {
	at   time.Time
	good int64
	bad  int64
}

type series struct {
	key     Key
	target  float64
	born    time.Time
	samples []sample
}

// Engine holds the budget series and evaluates them. Safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	series map[Key]*series
}

// New builds an engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), series: make(map[Key]*series)}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Record feeds one cumulative reading for a series: good and bad event totals
// since process start, and the budget target (the tolerated bad fraction,
// e.g. 0.05 for "at most 5% of elements may miss TOQ"). Totals going
// backwards mean the upstream counters reset (node restart, tenant handoff);
// the series restarts from the new totals rather than producing negative
// deltas. A nil engine ignores the call, so instrumentation needs no gate.
func (e *Engine) Record(k Key, target float64, good, bad int64, now time.Time) {
	if e == nil || target <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.series[k]
	if !ok {
		s = &series{key: k, born: now}
		e.series[k] = s
	}
	s.target = target
	if n := len(s.samples); n > 0 {
		last := s.samples[n-1]
		if good < last.good || bad < last.bad {
			// Counter reset: restart the series at the new origin.
			s.samples = s.samples[:0]
			s.born = now
		} else if !now.After(last.at) {
			// Out-of-order or same-instant reading: keep the newest totals
			// under the existing timestamp.
			s.samples[n-1] = sample{at: last.at, good: good, bad: bad}
			return
		} else if n > 1 && last.at.Sub(s.samples[n-2].at) < e.cfg.SlowWindow/time.Duration(e.cfg.MaxSamples) {
			// The newest sample is still closer to its predecessor than
			// SlowWindow/MaxSamples: the new reading replaces it, timestamp
			// included, so a series fed per request keeps its ring spread
			// over the slow window instead of holding only its last
			// MaxSamples requests.
			s.samples[n-1] = sample{at: now, good: good, bad: bad}
			return
		}
	}
	s.samples = append(s.samples, sample{at: now, good: good, bad: bad})
	s.prune(now, e.cfg)
}

// prune drops samples the slow window can never use again, always keeping one
// sample older than the window as the delta baseline, and enforces the ring
// cap by thinning the oldest readings.
func (s *series) prune(now time.Time, cfg Config) {
	cut := now.Add(-cfg.SlowWindow)
	first := 0
	for first < len(s.samples)-1 && s.samples[first+1].at.Before(cut) {
		first++
	}
	if first > 0 {
		s.samples = append(s.samples[:0], s.samples[first:]...)
	}
	if over := len(s.samples) - cfg.MaxSamples; over > 0 {
		s.samples = append(s.samples[:0], s.samples[over:]...)
	}
}

// WindowBurn is the evaluated state of one window of one series.
type WindowBurn struct {
	// Seconds is the configured window width.
	Seconds float64 `json:"seconds"`
	// SpanSeconds is the span the burn was actually computed over — smaller
	// than Seconds while the series is younger than the window (cold start).
	SpanSeconds float64 `json:"spanSeconds"`
	// Bad and Total are the event deltas inside the window.
	Bad   int64 `json:"bad"`
	Total int64 `json:"total"`
	// Burn is badFraction/target: 1 spends the budget exactly, >1 overspends.
	Burn float64 `json:"burn"`
}

// Alert is the evaluated state of one budget series.
type Alert struct {
	Key
	Target   float64    `json:"target"`
	Severity string     `json:"severity"`
	Fast     WindowBurn `json:"fast"`
	Slow     WindowBurn `json:"slow"`
}

// burnWindow computes one window's burn for a series at `now`.
func (e *Engine) burnWindow(s *series, width time.Duration, now time.Time) WindowBurn {
	w := WindowBurn{Seconds: width.Seconds()}
	if len(s.samples) == 0 {
		return w
	}
	latest := s.samples[len(s.samples)-1]
	cut := now.Add(-width)
	// Baseline: the newest sample at or before the window's left edge.
	// When every retained sample is inside the window, the implied zero
	// reading at the series' birth if the series is younger than the window
	// (cold start); otherwise the ring cap thinned the older readings (a
	// spaced ring holds the slow window plus a reading or two), and the
	// oldest retained one is the closest baseline left.
	base := sample{at: s.born}
	if s.born.Before(cut) {
		base = s.samples[0]
	}
	for _, smp := range s.samples {
		if smp.at.After(cut) {
			break
		}
		base = smp
	}
	bad := latest.bad - base.bad
	total := (latest.good + latest.bad) - (base.good + base.bad)
	if bad < 0 {
		bad = 0
	}
	if total <= 0 {
		return w
	}
	span := latest.at.Sub(base.at)
	if span <= 0 {
		span = time.Second
	}
	if span > width {
		span = width
	}
	w.SpanSeconds = span.Seconds()
	w.Bad, w.Total = bad, total
	w.Burn = (float64(bad) / float64(total)) / s.target
	return w
}

func (e *Engine) evaluateSeries(s *series, now time.Time) Alert {
	a := Alert{
		Key:      s.key,
		Target:   s.target,
		Severity: SeverityOK,
		Fast:     e.burnWindow(s, e.cfg.FastWindow, now),
		Slow:     e.burnWindow(s, e.cfg.SlowWindow, now),
	}
	if a.Fast.Total < e.cfg.MinEvents {
		return a
	}
	switch {
	case a.Fast.Burn >= e.cfg.PageBurn && a.Slow.Burn >= e.cfg.PageBurn:
		a.Severity = SeverityPage
	case a.Fast.Burn >= e.cfg.TicketBurn && a.Slow.Burn >= e.cfg.TicketBurn:
		a.Severity = SeverityTicket
	}
	return a
}

// Evaluate returns the current state of every series, sorted by tenant,
// budget, kernel. The slice is fresh; nil engines return nil.
func (e *Engine) Evaluate(now time.Time) []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.series))
	for _, s := range e.series {
		out = append(out, e.evaluateSeries(s, now))
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Tenant != out[b].Tenant {
			return out[a].Tenant < out[b].Tenant
		}
		if out[a].Budget != out[b].Budget {
			return out[a].Budget < out[b].Budget
		}
		return out[a].Kernel < out[b].Kernel
	})
	return out
}

// Tenant returns the evaluated series of one tenant (nil when it has none).
func (e *Engine) Tenant(tenant string, now time.Time) []Alert {
	if e == nil {
		return nil
	}
	all := e.Evaluate(now)
	var out []Alert
	for _, a := range all {
		if a.Key.Tenant == tenant {
			out = append(out, a)
		}
	}
	return out
}

// Firing filters an alert list down to non-ok severities.
func Firing(alerts []Alert) []Alert {
	var out []Alert
	for _, a := range alerts {
		if a.Severity != SeverityOK {
			out = append(out, a)
		}
	}
	return out
}

// severityLevel maps severities onto the gauge scale: ok 0, ticket 1, page 2.
func severityLevel(sev string) float64 {
	switch sev {
	case SeverityPage:
		return 2
	case SeverityTicket:
		return 1
	}
	return 0
}

// Forget drops every series of one tenant — called when a tenant is deleted
// or handed off to another node, so its stale budgets stop alerting here.
func (e *Engine) Forget(tenant string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.series {
		if k.Tenant == tenant {
			delete(e.series, k)
		}
	}
}

// Publish evaluates every series and mirrors the results into slo.* gauges:
// slo.burn.fast / slo.burn.slow with the windowed burn rates and slo.alert
// with the severity level (0 ok, 1 ticket, 2 page), each labelled by tenant
// and budget. Returns the evaluated alerts so one pass serves both the
// metrics and the HTTP surfaces.
func (e *Engine) Publish(reg *obs.Registry, now time.Time) []Alert {
	alerts := e.Evaluate(now)
	if reg == nil {
		return alerts
	}
	for _, a := range alerts {
		labels := []string{"tenant", a.Tenant, "budget", a.Budget}
		reg.Gauge(obs.Labeled("slo.burn.fast", labels...)).Set(a.Fast.Burn)
		reg.Gauge(obs.Labeled("slo.burn.slow", labels...)).Set(a.Slow.Burn)
		reg.Gauge(obs.Labeled("slo.alert", labels...)).Set(severityLevel(a.Severity))
	}
	return alerts
}

// String renders an alert compactly for logs.
func (a Alert) String() string {
	return fmt.Sprintf("%s/%s %s burn fast=%.1f slow=%.1f (target %.3g)",
		a.Tenant, a.Budget, a.Severity, a.Fast.Burn, a.Slow.Burn, a.Target)
}
