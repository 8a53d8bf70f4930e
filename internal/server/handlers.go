package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"rumba/internal/buildinfo"
	"rumba/internal/core"
	"rumba/internal/slo"
	"rumba/internal/trace"
)

// VersionInfo is the GET /v1/version reply: which build serves this port.
// In a rolling-upgrade cluster the router's nodes may briefly run different
// commits; this endpoint is how an operator (or the cluster status page)
// tells them apart.
type VersionInfo struct {
	Service string `json:"service"`
	buildinfo.Info
}

// handleReadyz is the readiness probe — the cluster prober's target. Unlike
// /healthz (pure liveness) it answers "should a router send traffic here":
// 503 while draining (SIGTERM received, in-flight work finishing) and 503
// when the registry is empty (nothing servable — a node that lost its
// package dir must not attract tenants). The body names the reason so a
// human reading probe logs sees *why* the node refused.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if len(s.reg.Names()) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no kernels loaded")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// maxRequestBytes bounds one request body; a multi-megabyte batch belongs in
// several requests, not one unbounded allocation.
const maxRequestBytes = 8 << 20

// InvokeRequest is the POST /v1/invoke body.
type InvokeRequest struct {
	// Tenant namespaces the tuner state; empty selects "default".
	Tenant string `json:"tenant"`
	// Kernel names the registered model to invoke.
	Kernel string `json:"kernel"`
	// Inputs is the batch of kernel input vectors (each Spec.InDim wide).
	Inputs [][]float64 `json:"inputs"`
	// Checker optionally picks the error checker at tenant creation
	// ("linear", "tree", "ema", "none"); later requests must match.
	Checker string `json:"checker,omitempty"`
	// Mode/Target optionally pick the tuner policy at tenant creation
	// ("toq", "energy", "quality"); ignored once the tenant exists.
	Mode   string  `json:"mode,omitempty"`
	Target float64 `json:"target,omitempty"`
	// DeadlineMs bounds the request end to end; it propagates into the
	// pipeline's context, cancelling detection and recovery on expiry.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// InvokeResponse is the POST /v1/invoke reply.
type InvokeResponse struct {
	Tenant  string      `json:"tenant"`
	Kernel  string      `json:"kernel"`
	Outputs [][]float64 `json:"outputs"`
	// Elements/Fixed/DegradedElements summarise the pipeline's work: how
	// many elements the checker fired on and recovery re-executed exactly
	// (Fixed), and how many fired but could not be recovered in time
	// (DegradedElements).
	Elements         int `json:"elements"`
	Fixed            int `json:"fixed"`
	DegradedElements int `json:"degradedElements"`
	// Degraded marks a request shed under overload: every output is the
	// raw approximate result, unchecked. Shed requests do not touch the
	// tenant's tuner.
	Degraded bool `json:"degraded"`
	// Threshold is the tenant's firing threshold after this request (0 for
	// shed or unchecked requests).
	Threshold float64 `json:"threshold"`
	// Checker names the tenant's checker.
	Checker string `json:"checker,omitempty"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/invoke                 run a batch through a tenant's pipeline
//	GET    /v1/kernels                registered kernel names
//	GET    /v1/tenants                live tenant tuner + drift state
//	GET    /v1/tenants/{id}/health    one tenant's quality-drift verdict
//	GET    /v1/tenants/{id}/state     export the tenant's tuner+drift state
//	PUT    /v1/tenants/{id}/state     import state exported by another node
//	DELETE /v1/tenants/{id}/state     drop the tenant's live state (post-handoff)
//	GET    /v1/version                build provenance (git commit, toolchain)
//	GET    /v1/alerts                 SLO burn-rate alert state (all tenants)
//	GET    /healthz                   process liveness
//	GET    /readyz                    200 while servable, 503 with a reason
//	                                  (draining, or no kernels loaded)
//	GET    /metrics                   Prometheus text exposition
//	GET    /metrics.json              observability registry snapshot (JSON)
//	GET    /v1/metrics/history        snapshot ring (when HistoryInterval > 0)
//	GET    /debug/rumba/traces        flight-recorder dump (when tracing is on)
//	GET    /debug/rumba/traces/{traceID}  retained traces for one trace ID
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/invoke", s.handleInvoke)
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"kernels": s.reg.Names()})
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]TenantInfo{"tenants": s.tenants.List()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, VersionInfo{Service: "rumba-serve", Info: buildinfo.Resolve()})
	})
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	mux.HandleFunc("GET /v1/tenants/{id}/health", s.handleTenantHealth)
	mux.HandleFunc("GET /v1/tenants/{id}/state", s.handleTenantStateGet)
	mux.HandleFunc("PUT /v1/tenants/{id}/state", s.handleTenantStatePut)
	mux.HandleFunc("DELETE /v1/tenants/{id}/state", s.handleTenantStateDelete)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.Snapshot().WritePrometheus(w, "rumba")
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.metrics.Snapshot())
	})
	mux.HandleFunc("GET /debug/rumba/traces", func(w http.ResponseWriter, r *http.Request) {
		if s.recorder == nil {
			writeError(w, http.StatusNotFound,
				errors.New("tracing disabled; enable with Options.TraceCapacity (rumba-serve -trace-capacity)"))
			return
		}
		s.recorder.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /debug/rumba/traces/{traceID}", s.handleTraceByID)
	if s.opts.EnablePprof {
		// Opt-in only (Options.EnablePprof / rumba-serve -pprof): these
		// endpoints expose goroutine stacks, heap contents and the command
		// line. The subtree route gives Index the named profiles
		// (/debug/pprof/heap, .../goroutine, ...).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// invokeRequestPool recycles decoded request bodies: resetting Inputs to
// length zero keeps both the outer slice and every row's capacity, and
// encoding/json decodes into that existing capacity, so a warmed handler
// parses a steady stream of same-shaped batches without reallocating the
// input matrix on every request.
var invokeRequestPool = sync.Pool{New: func() any { return new(InvokeRequest) }}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	req := invokeRequestPool.Get().(*InvokeRequest)
	// Zero the scalar fields but keep the Inputs capacity for the decoder.
	*req = InvokeRequest{Inputs: req.Inputs[:0]}
	// Nothing reads the request's rows after the handler returns: the
	// stream has finished with them once ProcessSlice returns, cancelled or
	// not.
	defer invokeRequestPool.Put(req)
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Kernel == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing kernel"))
		return
	}
	k, ok := s.reg.Get(req.Kernel)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown kernel %q", req.Kernel))
		return
	}
	if len(req.Inputs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty inputs"))
		return
	}
	for i, in := range req.Inputs {
		if len(in) != k.Spec.InDim {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("input %d has %d values, kernel %s wants %d", i, len(in), k.Name, k.Spec.InDim))
			return
		}
	}
	var mode *TunerDefaults
	if req.Mode != "" {
		m, err := parseMode(req.Mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		target := req.Target
		if target == 0 {
			target = s.opts.Defaults.Target
		}
		mode = &TunerDefaults{Mode: m, Target: target}
	}
	ts, err := s.tenants.get(TenantKey{Tenant: req.Tenant, Kernel: req.Kernel}, k, req.Checker, mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}

	// Request tracing (Options.TraceCapacity > 0): the trace rides the
	// context into the pipeline; every method below is nil-safe, so the
	// disabled path costs nil checks only. A routed request carries the
	// cluster trace identity in X-Rumba-Traceparent — adopting it is what
	// lets the router stitch this node's span subtree under its forward hop;
	// direct (edge) requests mint a fresh trace ID here.
	var tr *trace.Trace
	if s.recorder != nil {
		if tid, parent, ok := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); ok {
			tr = trace.NewLinked("invoke", tid, parent, 0)
		} else {
			tr = trace.New("invoke", 0)
		}
		w.Header().Set(trace.TraceHeader, tr.TraceID())
		root := tr.Root()
		root.SetStr("tenant", req.Tenant)
		root.SetStr("kernel", req.Kernel)
		root.SetInt("elements", int64(len(req.Inputs)))
		ctx = trace.NewContext(ctx, root)
	}
	defer func() {
		tr.Finish()
		s.recorder.Record(tr)
	}()

	start := time.Now()
	j := &job{ctx: ctx, kernel: k, tenant: ts, inputs: req.Inputs, done: make(chan struct{})}
	j.span = tr.Root().Start("admission")
	if !s.adm.submit(j) {
		// Overload: shed the Rumba way — answer with the approximate
		// output, flagged, instead of queueing unboundedly.
		j.span.SetStr("outcome", "shed")
		j.span.End()
		tr.SetFlag(trace.FlagShed)
		s.mShed.Inc()
		ts.mu.Lock()
		ts.reqTotal++
		ts.reqShed++
		s.feedSLO(ts, k)
		ts.mu.Unlock()
		outputs, err := s.shed(k, req.Inputs)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		// Shedding answers with unchecked approximate output on purpose:
		// the response says so (Degraded: true) and the client opted into
		// approximation by calling this service at all.
		//rumba:allow approxflow load shedding commits the approximate output, flagged Degraded
		writeJSON(w, http.StatusOK, InvokeResponse{
			Tenant:   req.Tenant,
			Kernel:   req.Kernel,
			Outputs:  outputs,
			Elements: len(outputs),
			Degraded: true,
			Checker:  ts.checkerName,
		})
		return
	}
	<-j.done
	s.hLatency.Observe(float64(time.Since(start)))
	if j.err != nil {
		tr.SetFlag(trace.FlagError)
		if errors.Is(j.err, context.DeadlineExceeded) || errors.Is(j.err, context.Canceled) {
			s.mDeadline.Inc()
			writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("deadline exceeded after %d of %d elements", len(j.results), len(req.Inputs)))
			return
		}
		writeError(w, http.StatusInternalServerError, j.err)
		return
	}
	s.mRequests.Inc()

	resp := InvokeResponse{
		Tenant:   req.Tenant,
		Kernel:   req.Kernel,
		Outputs:  make([][]float64, len(j.results)),
		Elements: len(j.results),
		Checker:  ts.checkerName,
	}
	for i, res := range j.results {
		resp.Outputs[i] = res.Output
		if res.Fixed {
			resp.Fixed++
		}
		if res.Degraded {
			resp.DegradedElements++
		}
	}
	ts.mu.Lock()
	if ts.tuner != nil {
		resp.Threshold = ts.tuner.Threshold
	}
	ts.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// TenantHealth is the GET /v1/tenants/{id}/health reply: the quality-drift
// verdict for every kernel the tenant touches.
type TenantHealth struct {
	Tenant string `json:"tenant"`
	// Healthy is false when any kernel's drift monitor is violating, or any
	// SLO error budget is burning at page severity.
	Healthy bool         `json:"healthy"`
	Kernels []TenantInfo `json:"kernels"`
	// SLO is the tenant's evaluated burn-rate alert state, one entry per
	// budget series (absent when the engine is disabled).
	SLO []slo.Alert `json:"slo,omitempty"`
}

func (s *Server) handleTenantHealth(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	health := TenantHealth{Tenant: id, Healthy: true}
	for _, info := range s.tenants.List() {
		if info.Tenant != id {
			continue
		}
		health.Kernels = append(health.Kernels, info)
		if info.Drift != nil && info.Drift.State == DriftViolating.String() {
			health.Healthy = false
		}
	}
	if len(health.Kernels) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	health.SLO = s.sloEngine.Tenant(id, time.Now())
	for _, a := range health.SLO {
		if a.Severity == slo.SeverityPage {
			health.Healthy = false
		}
	}
	writeJSON(w, http.StatusOK, health)
}

func parseMode(s string) (core.TunerMode, error) {
	switch s {
	case "toq":
		return core.ModeTOQ, nil
	case "energy":
		return core.ModeEnergy, nil
	case "quality":
		return core.ModeQuality, nil
	default:
		return 0, fmt.Errorf("unknown tuner mode %q (want toq, energy or quality)", s)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before writing the header: a kernel whose outputs overflowed
	// to ±Inf is not JSON-representable, and streaming would have already
	// committed a 200 with an empty body by the time Encode fails.
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(errorResponse{Error: "response not representable as JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
