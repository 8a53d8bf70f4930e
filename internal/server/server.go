package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/slo"
	"rumba/internal/trace"
	"rumba/internal/tune"
)

// Options configures a Server. The zero value is usable: paper-default
// invocation size, a 4-worker pipeline, TOQ tuning at 90% target output
// quality, and a private metrics registry.
type Options struct {
	// Addr is the listen address for Run (ignored when the handler is
	// mounted elsewhere, e.g. under httptest).
	Addr string
	// PipelineWorkers is the number of goroutines draining the shared
	// admission queue (each runs one request on its tenant's engine at a
	// time); <= 0 uses 4.
	PipelineWorkers int
	// StreamWorkers is the number of goroutines each tenant's engine
	// re-executes a chunk's fired elements on; <= 0 uses 1.
	StreamWorkers int
	// QueueCap bounds the shared admission queue; <= 0 uses 64.
	QueueCap int
	// MaxInFlight bounds requests admitted but not yet completed; <= 0
	// uses QueueCap + PipelineWorkers. Beyond the window, requests are
	// shed (degraded to approximate-only output), never queued.
	MaxInFlight int
	// InvocationSize is the tuner's adaptation granularity in elements,
	// counted over each tenant's whole element stream; <= 0 uses 512, and
	// it is at most MaxInvocationSize.
	InvocationSize int
	// RecoveryDeadline bounds one element's exact re-execution; 0 disables
	// (see core.Config.RecoveryDeadline).
	RecoveryDeadline time.Duration
	// BatchSize is each tenant engine's detection chunk (see
	// core.Config.BatchSize): request inputs are pushed through the fused
	// accelerator/checker batch kernels this many elements at a time.
	// Outputs are bit-identical at every size; <= 0 uses 64. 1 restores
	// strictly per-element detection.
	BatchSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// mux. Off by default: the profiling endpoints expose stacks, heap
	// contents and command lines, so they are opt-in (rumba-serve -pprof).
	EnablePprof bool
	// Defaults is the tuner a new tenant starts with when its first
	// request does not choose a mode; a zero Target selects the paper's
	// 90% target output quality (0.10 error bound).
	Defaults TunerDefaults
	// StatePath, when set, is the JSON snapshot file for per-tenant tuner
	// state: loaded at New, written at Shutdown — a restarted server
	// resumes quality control where it left off.
	StatePath string
	// DrainTimeout bounds Run's drain on SIGTERM/ctx-cancel; <= 0 waits
	// indefinitely.
	DrainTimeout time.Duration
	// Metrics receives the server's observability stream (admission
	// counters, shared-queue gauges, per-tenant threshold gauges, and the
	// stream.* metrics of every tenant engine); nil allocates a
	// private registry.
	Metrics *obs.Registry
	// TraceCapacity enables request tracing: every request gets a span tree
	// (admission → stream chunks → accelerator invokes → recovery → merge)
	// and a flight recorder retains the last TraceCapacity completed traces
	// per ring, dumped from /debug/rumba/traces. <= 0 disables tracing (the
	// default): the span calls on the batched hot path then collapse to nil
	// checks and add zero allocations per element.
	TraceCapacity int
	// TraceSampleEvery tail-samples healthy traces: 1 in TraceSampleEvery
	// unflagged traces enters the recorder, while shed/degraded/violating/
	// errored traces are always kept. <= 1 keeps every trace.
	TraceSampleEvery int
	// Drift configures the per-tenant quality-drift monitor (see
	// DriftConfig); the zero value selects 256-element windows with 3-of-5
	// alert hysteresis.
	Drift DriftConfig
	// Frontier is a rumba-tune Pareto-frontier artifact: when set, each new
	// tenant is served at the cheapest frontier point whose predicted quality
	// meets its TOQ target and whose predicted chunk latency meets the
	// kernel's p99 SLO (see tune.go). nil serves every tenant on the default
	// datapath at Options.BatchSize.
	Frontier *tune.Frontier
	// HistoryInterval enables the metrics history ring: every interval the
	// registry is snapshotted into a fixed ring served from
	// /v1/metrics/history. <= 0 disables (the default).
	HistoryInterval time.Duration
	// HistoryCapacity is the ring size; <= 0 uses obs.DefaultHistoryCapacity
	// (240 — one hour at a 15s interval).
	HistoryCapacity int
	// SLO configures the per-tenant burn-rate alerting engine (see
	// SLOOptions); the zero value disables it.
	SLO SLOOptions
}

// Server is the rumba-serve daemon: registry + tenant manager + admission
// controller behind a stdlib HTTP mux.
type Server struct {
	opts    Options
	reg     *Registry
	tenants *Tenants
	adm     *admission
	metrics *obs.Registry
	// recorder is the trace flight recorder (nil when tracing is disabled).
	recorder *trace.Recorder
	// history is the metrics snapshot ring (nil when HistoryInterval <= 0);
	// sloEngine the burn-rate engine (nil when SLO.Enabled is false). stopCh
	// stops their background loops — closed once in Shutdown. The loops start
	// in New, not Run, because tests and the cluster harness mount Handler()
	// directly under httptest without ever calling Run.
	history   *obs.History
	sloEngine *slo.Engine
	sloOpts   SLOOptions
	stopCh    chan struct{}

	mRequests, mShed, mDeadline *obs.Counter
	hLatency                    *obs.Histogram

	ready        atomic.Bool
	http         *http.Server
	boundAddr    atomic.Value // string; set once Run's listener is bound
	shutdownOnce sync.Once

	// Restored counts tenants restored from StatePath at startup;
	// RestoreSkipped counts snapshot entries whose kernel is no longer
	// registered.
	Restored, RestoreSkipped int
}

// New builds a server over a kernel registry. When Options.StatePath names
// an existing snapshot, the per-tenant tuner state is restored from it
// before the first request is served.
func New(reg *Registry, opts Options) (*Server, error) {
	if opts.InvocationSize > MaxInvocationSize {
		return nil, fmt.Errorf("server: invocation size %d exceeds %d", opts.InvocationSize, MaxInvocationSize)
	}
	if opts.Drift.N > MaxDriftN {
		return nil, fmt.Errorf("server: drift ring n=%d exceeds %d", opts.Drift.N, MaxDriftN)
	}
	if opts.Defaults.Target == 0 {
		opts.Defaults = TunerDefaults{Mode: core.ModeTOQ, Target: 0.10}
	}
	if opts.StreamWorkers <= 0 {
		opts.StreamWorkers = 1
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	m := opts.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	s := &Server{
		opts:      opts,
		reg:       reg,
		tenants:   NewTenants(opts.Defaults, opts.InvocationSize),
		metrics:   m,
		mRequests: m.Counter(MetricRequests),
		mShed:     m.Counter(MetricShed),
		mDeadline: m.Counter(MetricDeadline),
		hLatency:  m.Histogram(MetricLatencyNs),
	}
	s.tenants.engine.BatchSize = opts.BatchSize
	s.tenants.engine.RecoveryDeadline = opts.RecoveryDeadline
	s.tenants.engine.Metrics = m
	s.tenants.workers = opts.StreamWorkers
	s.tenants.drift = opts.Drift.withDefaults()
	s.tenants.frontier = opts.Frontier
	// Restore before any background loop starts, so a refused state file
	// leaves nothing running.
	if opts.StatePath != "" {
		restored, skipped, err := s.tenants.LoadState(opts.StatePath, reg)
		if err != nil {
			return nil, err
		}
		s.Restored, s.RestoreSkipped = restored, skipped
	}
	if opts.TraceCapacity > 0 {
		s.recorder = trace.NewRecorder(trace.RecorderConfig{
			Capacity:    opts.TraceCapacity,
			SampleEvery: opts.TraceSampleEvery,
		})
	}
	s.stopCh = make(chan struct{})
	if opts.SLO.Enabled {
		s.sloOpts = opts.SLO.withDefaults()
		s.sloEngine = slo.New(slo.Config{
			FastWindow: s.sloOpts.FastWindow,
			SlowWindow: s.sloOpts.SlowWindow,
			PageBurn:   s.sloOpts.PageBurn,
			TicketBurn: s.sloOpts.TicketBurn,
			MinEvents:  s.sloOpts.MinEvents,
		})
		go s.sloLoop(s.sloOpts.EvalInterval)
	}
	if opts.HistoryInterval > 0 {
		s.history = obs.NewHistory(opts.HistoryCapacity)
		go s.historyLoop(opts.HistoryInterval)
	}
	s.adm = newAdmission(opts.PipelineWorkers, opts.QueueCap, opts.MaxInFlight, m, s.execute)
	s.ready.Store(true)
	return s, nil
}

// Metrics returns the server's observability registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tenants returns the live tenant listing (the /v1/tenants view).
func (s *Server) Tenants() []TenantInfo { return s.tenants.List() }

// execute runs one admitted request on an admission worker: the tenant's
// engine continues its element stream over the request's inputs, with the
// request context (and so its deadline) cancelling the call. A failed call
// leaves the engine, its tuner and its checker as they were. The tenant
// lock serialises the tenant's requests so its engine sees its elements in
// order; different tenants run in parallel across workers.
func (s *Server) execute(j *job) {
	// The admission span opened at submit; ending it here stamps the
	// shared-queue wait. Both calls are nil checks when tracing is off.
	j.span.End()
	ctx, streamSpan := trace.StartSpan(j.ctx, "stream")
	ts := j.tenant
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.point != nil {
		streamSpan.SetStr("tune.point", ts.point.Key())
	}
	start := time.Now()
	results, err := ts.engine.ProcessSlice(ctx, j.inputs)
	elapsed := time.Since(start)
	j.results = results
	streamSpan.SetInt("elements", int64(len(results)))
	if err != nil {
		j.err = err
		streamSpan.AddFlag(trace.FlagError)
		streamSpan.End()
		return
	}
	ts.noteResults(results)
	ts.reqTotal++
	ts.noteChunks(j.kernel, len(results), ts.batch, elapsed)
	s.feedSLO(ts, j.kernel)
	if ts.tuner != nil {
		s.gauge(ts, gaugeThreshold).Set(ts.tuner.Threshold)
	}
	var sum float64
	for _, r := range results {
		sum += r.PredictedError
	}
	if len(results) > 0 {
		s.gauge(ts, gaugePredictedError).Set(sum / float64(len(results)))
	}
	if ts.point != nil && len(results) > 0 {
		s.gauge(ts, gaugeTuneSelected).Set(float64(ts.pointIndex))
		s.gauge(ts, gaugeTunePredictedNs).Set(ts.point.NsPerElem)
		s.gauge(ts, gaugeTuneDeliveredNs).Set(float64(elapsed.Nanoseconds()) / float64(len(results)))
	}
	if d := ts.drift; d != nil {
		s.publishDrift(ts)
		if d.state == DriftViolating {
			streamSpan.AddFlag(trace.FlagViolating)
		}
	}
	streamSpan.End()
}

// publishDrift mirrors one tenant's drift-monitor state into the labelled
// drift.* gauges so a scraper sees quality alerts without polling the tenant
// API. Caller holds ts.mu and ts.drift is non-nil.
func (s *Server) publishDrift(ts *tenant) {
	d := ts.drift
	s.gauge(ts, gaugeDriftState).Set(float64(d.state))
	s.gauge(ts, gaugeDriftEstimate).Set(d.lastEstimate)
	s.gauge(ts, gaugeDriftObserved).Set(d.lastObserved)
	s.gauge(ts, gaugeDriftWindows).Set(float64(d.windows))
	s.gauge(ts, gaugeDriftViolations).Set(float64(d.violations))
}

// gauge returns one of the tenant's labelled gauges, resolving it in the
// registry on its first publish, so later requests skip obs.Labeled and the
// registry lock. Caller holds ts.mu.
func (s *Server) gauge(ts *tenant, g tenantGauge) *obs.Gauge {
	if ts.gauges[g] == nil {
		ts.gauges[g] = s.metrics.Gauge(obs.Labeled(tenantGaugeNames[g],
			"tenant", ts.key.Tenant, "kernel", ts.key.Kernel))
	}
	return ts.gauges[g]
}

// shed produces the degraded answer for a request the admission controller
// refused: approximate-only output from a request-private executor, flagged
// Degraded, with no detection, recovery or tuning — bounded work under
// overload, which is exactly how the paper's runtime degrades when the
// recovery CPU cannot keep up.
func (s *Server) shed(k *Kernel, inputs [][]float64) ([][]float64, error) {
	acc, err := k.NewAccel()
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(inputs))
	for i, in := range inputs {
		out[i] = acc.Invoke(in)
	}
	return out, nil
}

// Run serves on Options.Addr until ctx is cancelled (wire it to
// SIGTERM/SIGINT via signal.NotifyContext), then drains: the listener stops
// accepting, in-flight requests complete, the admission workers finish every
// queued job, and the tenant state is snapshotted to StatePath.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		s.adm.close()
		return err
	}
	s.boundAddr.Store(ln.Addr().String())
	s.http = &http.Server{Addr: s.opts.Addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(ln) }()
	select {
	case err := <-errc:
		// Listen failed before any drain was requested.
		s.adm.close()
		return err
	case <-ctx.Done():
	}
	drainCtx := context.Background()
	if s.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(drainCtx, s.opts.DrainTimeout)
		defer cancel()
	}
	err = s.Shutdown(drainCtx)
	if herr := <-errc; herr != nil && !errors.Is(herr, http.ErrServerClosed) && err == nil {
		err = herr
	}
	return err
}

// Addr returns the listener's bound address once Run is serving ("" before
// that). With Options.Addr ending in ":0" this is how callers — and the
// serve load experiment — learn the OS-assigned port.
func (s *Server) Addr() string {
	if v, ok := s.boundAddr.Load().(string); ok {
		return v
	}
	return ""
}

// Shutdown drains the server: readiness flips to draining, the HTTP server
// (if Run started one) stops accepting and waits for in-flight handlers, the
// admission workers finish every queued job, and the tenant tuner state is
// snapshotted to StatePath. It is idempotent; the first call wins.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdownOnce.Do(func() {
		s.ready.Store(false)
		close(s.stopCh)
		if s.http != nil {
			err = s.http.Shutdown(ctx)
		}
		s.adm.close()
		if s.opts.StatePath != "" {
			if serr := s.tenants.SaveState(s.opts.StatePath); serr != nil && err == nil {
				err = serr
			}
		}
	})
	return err
}
