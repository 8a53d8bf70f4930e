// Package obs is the runtime's observability layer: lock-free counters,
// gauges and log-bucketed histograms behind a named registry, with an
// immutable Snapshot suitable for JSON export. The streaming runtime
// (internal/core), the accelerator queue model (internal/accel) and the
// executor seam (internal/exec) thread their activity through a Registry;
// cmd/rumba-demo exports it via expvar and cmd/rumba-bench renders it as a
// summary table.
//
// Everything here is standard library only and safe for concurrent use: the
// hot-path mutation methods (Counter.Add, Gauge.Set, Histogram.Observe) are
// single atomic operations (plus a CAS loop for float accumulation), so
// instrumented pipeline stages never contend on a lock.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, in-flight window, tuner
// threshold). It additionally tracks its high-water mark, which is what a
// bounded-resource assertion ("the admission queue never held more than
// QueueCap requests") needs after the fact.
type Gauge struct {
	bits    atomic.Uint64 // float64 bits of the current value
	maxBits atomic.Uint64 // float64 bits of the high-water mark
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.updateMax(v)
}

// Add shifts the gauge by delta and returns the new value.
func (g *Gauge) Add(delta float64) float64 {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			g.updateMax(v)
			return v
		}
	}
}

func (g *Gauge) updateMax(v float64) {
	for {
		old := g.maxBits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Max returns the high-water mark (zero if the gauge never went positive).
func (g *Gauge) Max() float64 { return math.Float64frombits(g.maxBits.Load()) }

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds observations <= 1, bucket i holds (2^(i-1), 2^i]. 64 buckets cover
// the full non-negative float64-to-int64 range, so nanosecond latencies from
// 1ns to ~292 years land without clamping artifacts.
const histBuckets = 64

// Histogram is a log-bucketed (power-of-two) distribution of non-negative
// observations, typically latencies in nanoseconds. Buckets are atomic, so
// Observe is wait-free per bucket.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. Negative and NaN observations count into
// bucket 0 (they are measurement glitches, not data worth crashing over).
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func bucketIndex(v float64) int {
	if math.IsNaN(v) || v <= 1 {
		return 0
	}
	// ceil(log2(v)), capped to the last bucket.
	e := math.Ilogb(v)
	if math.Ldexp(1, e) < v {
		e++
	}
	if e < 0 {
		return 0
	}
	if e >= histBuckets {
		return histBuckets - 1
	}
	return e
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Registry is a named collection of metrics. Lookup methods get-or-create,
// so instrumented code never checks for prior registration; distinct metric
// kinds live in distinct namespaces.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Bucket is one non-empty histogram bucket: Count observations with value
// in (Le/2, Le] (Le == 1 holds everything <= 1).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation (zero when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the Le of
// the bucket the quantile observation landed in. Zero when empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return h.Buckets[len(h.Buckets)-1].Le
}

// GaugeSnapshot is the frozen state of one gauge.
type GaugeSnapshot struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// Snapshot is an immutable copy of a registry's state. Encoding it with
// encoding/json yields deterministic output (map keys are sorted), which is
// what the golden-shape test and any dashboard built on the export rely on.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. The copy is detached: later metric updates
// do not show through it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count: h.count.Load(),
			Sum:   math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: math.Ldexp(1, i), Count: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// CounterNames returns the sorted names of all registered counters.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
