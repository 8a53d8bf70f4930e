package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"rumba/internal/buildinfo"
	"rumba/internal/obs"
	"rumba/internal/server"
	"rumba/internal/trace"
)

// maxForwardBytes bounds one forwarded request body, mirroring the node's
// own request bound.
const maxForwardBytes = 8 << 20

// Options configures a Router. The zero value is usable over any node set:
// default vnode count, retries covering every replica, 2s probing.
type Options struct {
	// VNodes is the ring's virtual-node count per member; <= 0 uses
	// DefaultVNodes.
	VNodes int
	// Retries is the failover budget: after the owning node fails, up to
	// Retries further replicas are tried in ring order. < 0 disables
	// failover (owner only); 0 uses every replica (the default — a static
	// cluster is small, and the last resort is better than an error).
	Retries int
	// ForwardTimeout bounds one forward attempt when the incoming request
	// carries no deadline of its own; <= 0 uses 30s. Requests with a
	// deadline propagate it instead (the outbound request shares the
	// inbound context).
	ForwardTimeout time.Duration
	// Probe tunes the membership health prober.
	Probe ProbeConfig
	// Metrics receives the router's observability stream; nil allocates a
	// private registry.
	Metrics *obs.Registry
	// TraceCapacity enables forward tracing: every routed request gets a
	// span per forward attempt, kept in a flight recorder dumped from
	// /debug/rumba/traces. <= 0 disables tracing.
	TraceCapacity int
	// TraceSampleEvery tail-samples healthy traces, 1 in N; failover and
	// error traces are always kept. <= 1 keeps every trace.
	TraceSampleEvery int
	// Federate turns GET /metrics into a cluster-wide exposition: the router
	// scrapes every live member's /metrics.json, stamps each snapshot with a
	// node label (its own metrics as node="router"), and re-emits the merged
	// set. Off by default — a federated scrape costs one fan-out per pull.
	Federate bool
	// Client optionally overrides the forwarding HTTP client (tests); nil
	// uses a dedicated client with sane connection reuse.
	Client *http.Client
}

// Router is the cluster's front door: it owns the ring and the membership,
// forwards tenant-scoped requests to the owning node with failover along the
// ring, and drives state handoff when the membership is rebalanced.
type Router struct {
	opts    Options
	metrics *obs.Registry
	client  *http.Client

	// mu guards ring/membership, which Rebalance swaps atomically.
	mu         sync.RWMutex
	ring       *Ring
	membership *Membership

	// startCtx is remembered so a rebalance can start the replacement
	// membership's prober under the same lifecycle as the original.
	startMu  sync.Mutex
	startCtx context.Context
	started  bool

	recorder *trace.Recorder

	mUnroutable *obs.Counter
	hLatency    *obs.Histogram
}

// NewRouter builds a router over a static node set.
func NewRouter(nodes []Node, opts Options) (*Router, error) {
	m := opts.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 30 * time.Second
	}
	membership, err := NewMembership(nodes, opts.Probe, m)
	if err != nil {
		return nil, err
	}
	ring, err := NewRing(membership.Names(), opts.VNodes)
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	rt := &Router{
		opts:        opts,
		metrics:     m,
		client:      client,
		ring:        ring,
		membership:  membership,
		mUnroutable: m.Counter(MetricUnroutable),
		hLatency:    m.Histogram(MetricForwardLatencyNs),
	}
	if opts.TraceCapacity > 0 {
		rt.recorder = trace.NewRecorder(trace.RecorderConfig{
			Capacity:    opts.TraceCapacity,
			SampleEvery: opts.TraceSampleEvery,
		})
	}
	return rt, nil
}

// Metrics returns the router's observability registry.
func (rt *Router) Metrics() *obs.Registry { return rt.metrics }

// Ring returns the current ring (swapped wholesale on rebalance, so the
// returned value is safe to read concurrently).
func (rt *Router) Ring() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// Membership returns the current membership.
func (rt *Router) Membership() *Membership {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.membership
}

// Start launches the health prober; it runs until ctx is cancelled or Stop
// is called.
func (rt *Router) Start(ctx context.Context) {
	rt.startMu.Lock()
	rt.startCtx = ctx
	rt.started = true
	rt.startMu.Unlock()
	rt.Membership().Start(ctx)
}

// Stop ends the prober.
func (rt *Router) Stop() {
	rt.startMu.Lock()
	started := rt.started
	rt.started = false
	rt.startMu.Unlock()
	if started {
		rt.Membership().Stop()
	}
}

// Handler returns the router's HTTP surface:
//
//	POST   /v1/invoke                 forwarded to the tenant's owning node
//	GET    /v1/tenants/{id}/health    forwarded by tenant
//	GET    /v1/tenants/{id}/state     forwarded by tenant
//	PUT    /v1/tenants/{id}/state     forwarded by tenant
//	DELETE /v1/tenants/{id}/state     forwarded by tenant
//	GET    /v1/tenants                fanned out to all live nodes, merged
//	GET    /v1/kernels                forwarded to the first live node
//	GET    /v1/cluster                ring + membership + placement status
//	GET    /v1/cluster/alerts         every member's SLO alert state, merged
//	GET    /v1/version                router build provenance
//	GET    /healthz                   router liveness
//	GET    /readyz                    200 while >= 1 node is not down
//	GET    /metrics, /metrics.json    router metrics (forwards, failovers,
//	                                  probe states — per-node labels);
//	                                  with Options.Federate, /metrics is the
//	                                  cluster-wide node-labeled exposition
//	GET    /debug/rumba/traces        forward-hop flight recorder
//	GET    /debug/rumba/traces/{id}   cross-node stitched trace
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/invoke", rt.handleInvoke)
	mux.HandleFunc("GET /v1/tenants/{id}/health", rt.handleTenantScoped)
	mux.HandleFunc("GET /v1/tenants/{id}/state", rt.handleTenantScoped)
	mux.HandleFunc("PUT /v1/tenants/{id}/state", rt.handleTenantScoped)
	mux.HandleFunc("DELETE /v1/tenants/{id}/state", rt.handleTenantScoped)
	mux.HandleFunc("GET /v1/tenants", rt.handleTenantsMerge)
	mux.HandleFunc("GET /v1/kernels", rt.handleKernels)
	mux.HandleFunc("GET /v1/cluster", rt.handleClusterStatus)
	mux.HandleFunc("GET /v1/cluster/alerts", rt.handleClusterAlerts)
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.VersionInfo{Service: "rumba-router", Info: buildinfo.Resolve()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		for _, st := range rt.Membership().Snapshot() {
			if st.State != NodeDown.String() {
				w.WriteHeader(http.StatusOK)
				fmt.Fprintln(w, "ready")
				return
			}
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no nodes ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if rt.opts.Federate {
			rt.handleMetricsFederated(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rt.metrics.Snapshot().WritePrometheus(w, "rumba")
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.metrics.Snapshot())
	})
	mux.HandleFunc("GET /debug/rumba/traces", func(w http.ResponseWriter, r *http.Request) {
		if rt.recorder == nil {
			writeError(w, http.StatusNotFound,
				errors.New("tracing disabled; enable with Options.TraceCapacity (rumba-router -trace-capacity)"))
			return
		}
		rt.recorder.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /debug/rumba/traces/{traceID}", rt.handleTraceStitch)
	return mux
}

// handleInvoke peeks the tenant out of the body and forwards by ring
// ownership. The body is decoded only far enough to learn the routing key;
// the owning node performs full validation.
func (rt *Router) handleInvoke(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	var peek struct {
		Tenant     string `json:"tenant"`
		DeadlineMs int64  `json:"deadlineMs"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	tenant := peek.Tenant
	if tenant == "" {
		tenant = "default"
	}
	ctx := r.Context()
	if peek.DeadlineMs > 0 {
		// The request's own deadline bounds the whole forward, failover
		// included: a client that gave up must not keep burning replicas.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(peek.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	rt.forward(ctx, w, tenant, http.MethodPost, "/v1/invoke", body, r.Header.Get("Content-Type"), r.Header.Get(trace.TraceparentHeader))
}

// handleTenantScoped forwards any /v1/tenants/{id}/... request to the
// tenant's owning node, preserving method and body.
func (rt *Router) handleTenantScoped(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("id")
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBytes)); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
			return
		}
	}
	rt.forward(r.Context(), w, tenant, r.Method, r.URL.Path, body, r.Header.Get("Content-Type"), r.Header.Get(trace.TraceparentHeader))
}

// retryableStatus reports whether a node's response means "another replica
// might serve this": 502/503/504 are infrastructure refusals (draining,
// proxy errors), while anything else — success or a real application answer
// like 400/404/500 — is returned to the client as-is.
func retryableStatus(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// forward sends the request to the tenant's replicas in ring order until one
// answers, then copies that answer to the client. Down nodes are skipped
// without consuming retry budget (their failure is already known); transport
// errors and retryable statuses consume budget and move on.
//
// inboundTP is the client's X-Rumba-Traceparent (usually empty — the router
// is the trace edge and mints IDs, but a traced upstream may hand one in).
// Each attempt's span is stamped into the outbound traceparent, so a node's
// root span links under exactly the hop that reached it.
func (rt *Router) forward(ctx context.Context, w http.ResponseWriter, tenant, method, path string, body []byte, contentType, inboundTP string) {
	rt.mu.RLock()
	ring, membership := rt.ring, rt.membership
	rt.mu.RUnlock()

	budget := rt.opts.Retries + 1
	if rt.opts.Retries < 0 {
		budget = 1
	} else if rt.opts.Retries == 0 {
		budget = len(ring.Members())
	}
	order := ring.Replicas(tenant, 0)

	var tr *trace.Trace
	if rt.recorder != nil {
		if tid, parent, ok := trace.ParseTraceparent(inboundTP); ok {
			tr = trace.NewLinked("route", tid, parent, 0)
		} else {
			tr = trace.New("route", 0)
		}
		// Name the trace before any attempt commits the response headers, so
		// even a failed forward tells the client where its trace lives.
		w.Header().Set(trace.TraceHeader, tr.TraceID())
		root := tr.Root()
		root.SetStr("tenant", tenant)
		root.SetStr("path", path)
		defer func() {
			tr.Finish()
			rt.recorder.Record(tr)
		}()
	}

	start := time.Now()
	defer func() { rt.hLatency.Observe(float64(time.Since(start))) }()

	attempts := 0
	var lastErr error
	for _, name := range order {
		if attempts >= budget {
			break
		}
		if membership.State(name) == NodeDown {
			// Known-dead nodes are skipped for free; the ring is unchanged,
			// so a recovered node resumes ownership on its next good probe.
			continue
		}
		attempts++
		if attempts > 1 {
			tr.SetFlag(trace.FlagFailover)
		}
		span := tr.Root().Start("forward")
		span.SetStr("node", name)
		status, err := rt.attempt(ctx, w, membership.URL(name)+path, method, body, contentType, name, span.Traceparent())
		if err == nil && !retryableStatus(status) {
			span.SetInt("status", int64(status))
			span.End()
			membership.countForward(name, false)
			return
		}
		if err != nil {
			span.SetStr("error", err.Error())
			lastErr = err
		} else {
			span.SetInt("status", int64(status))
			lastErr = fmt.Errorf("node %s answered %d", name, status)
		}
		span.End()
		membership.countForward(name, true)
		if ctx.Err() != nil {
			// The request's deadline expired: stop failing over, tell the
			// client the truth.
			break
		}
	}
	tr.SetFlag(trace.FlagError)
	rt.mUnroutable.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("all replicas down")
	}
	status := http.StatusServiceUnavailable
	if ctx.Err() != nil {
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, fmt.Errorf("tenant %q unroutable after %d attempt(s): %w", tenant, attempts, lastErr))
}

// attempt forwards once. On a non-retryable response the node's answer is
// streamed to the client and its status returned; on transport failure
// nothing has been written (the response is buffered) so the caller is free
// to fail over.
func (rt *Router) attempt(ctx context.Context, w http.ResponseWriter, url, method string, body []byte, contentType, node, traceparent string) (int, error) {
	actx := ctx
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rt.opts.ForwardTimeout)
		defer cancel()
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, reader)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		// Drain so the connection is reusable, then let the caller fail over.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, nil
	}
	// Buffer before writing: a mid-body read error must not leave the client
	// with a committed status and half an answer it cannot distinguish from
	// a full one.
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("reading node response: %w", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Rumba-Node", node)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(payload)
	return resp.StatusCode, nil
}

// handleTenantsMerge fans GET /v1/tenants out to every non-down node and
// merges the lists — the cluster-wide tenant view a single node cannot have.
func (rt *Router) handleTenantsMerge(w http.ResponseWriter, r *http.Request) {
	membership := rt.Membership()
	type nodeResult struct {
		tenants []server.TenantInfo
		err     error
	}
	names := membership.Names()
	results := make([]nodeResult, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		if membership.State(name) == NodeDown {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			var payload struct {
				Tenants []server.TenantInfo `json:"tenants"`
			}
			results[i].err = rt.getJSON(r.Context(), url+"/v1/tenants", &payload)
			results[i].tenants = payload.Tenants
		}(i, membership.URL(name))
	}
	wg.Wait()
	merged := make([]server.TenantInfo, 0, 16)
	for _, res := range results {
		// A node that died between the probe and the fan-out contributes
		// nothing; the merged view is best-effort by design and the /v1/
		// cluster endpoint carries the authoritative health picture.
		if res.err == nil {
			merged = append(merged, res.tenants...)
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Tenant != merged[b].Tenant {
			return merged[a].Tenant < merged[b].Tenant
		}
		return merged[a].Kernel < merged[b].Kernel
	})
	writeJSON(w, http.StatusOK, map[string][]server.TenantInfo{"tenants": merged})
}

// handleKernels forwards to the first live node: every node serves the same
// registry (a deployment invariant /v1/cluster makes checkable via each
// node's version endpoint).
func (rt *Router) handleKernels(w http.ResponseWriter, r *http.Request) {
	membership := rt.Membership()
	for _, name := range membership.Names() {
		if membership.State(name) == NodeDown {
			continue
		}
		var payload json.RawMessage
		if err := rt.getJSON(r.Context(), membership.URL(name)+"/v1/kernels", &payload); err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Rumba-Node", name)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(append(payload, '\n'))
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, errors.New("no node answered /v1/kernels"))
}

// ClusterStatus is the GET /v1/cluster reply.
type ClusterStatus struct {
	Nodes  []NodeStatus `json:"nodes"`
	VNodes int          `json:"vnodes"`
	// Retries echoes the failover budget (0 means "every replica").
	Retries int `json:"retries"`
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	ring, membership := rt.ring, rt.membership
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, ClusterStatus{
		Nodes:   membership.Snapshot(),
		VNodes:  ring.VNodes(),
		Retries: rt.opts.Retries,
	})
}

// getJSON is a small GET-and-decode helper with the forward timeout applied.
func (rt *Router) getJSON(ctx context.Context, url string, into any) error {
	cctx, cancel := context.WithTimeout(ctx, rt.opts.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// errorResponse mirrors the node's error body shape so clients see one
// format cluster-wide.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
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
