package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"text/tabwriter"
	"time"

	"rumba/internal/accel"
	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/server"
)

// The ladder's rungs. Each wraps calls into one layer; the span tree is
//
//	e2e ⊃ [cluster.route ⊃ node.post ⊃] server.handler ⊃
//	    {server.decode, core.stream ⊃ {accel.invoke_batch,
//	     predictor.predict_batch, bench.exact}, server.encode}
//
// where the bracketed rungs exist on the routed workload only. Every rung
// is measured in its own calls, so a child's span does not lie inside its
// parent's, and a rung's self time (its median minus its children's) is an
// estimate by subtraction. Two reference rungs are timed alongside, outside
// the tree: e2e.untraced (e2e without a span) and, on the routed workload,
// server.handler.obs_off (the handler on a twin node with tracing, history
// and SLO off).
const (
	rE2E = iota
	rRoute
	rNodePost
	rHandler
	rDecode
	rStream
	rAccel
	rPredict
	rExact
	rEncode
	rUntraced
	rObsOff
	nRungs
)

var rungNames = [nRungs]string{
	"e2e", "cluster.route", "node.post", "server.handler", "server.decode", "core.stream",
	"accel.invoke_batch", "predictor.predict_batch", "bench.exact", "server.encode",
	"e2e.untraced", "server.handler.obs_off",
}

// noParent marks the root and the reference rungs.
const noParent = -1

// detectChunk is the width the accel and predictor rungs call their batch
// kernels at: the server's default BatchSize.
const detectChunk = 64

// warmReqs is how many requests the warm-up and allocation passes use.
const warmReqs = 50

// span is one call into a layer for one ladder request. IDs are
// request*nRungs+rung, so a request's spans share the request id and link by
// parent; Start and End are nanoseconds since the timed pass began.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rungRow is one line of the per-rung table.
type rungRow struct {
	Name          string  `json:"name"`
	Parent        string  `json:"parent,omitempty"`
	Calls         int     `json:"calls"`
	P50Ns         float64 `json:"p50_ns_per_req"`
	P90Ns         float64 `json:"p90_ns_per_req"`
	NsPerElem     float64 `json:"ns_per_elem"`
	AllocsPerCall float64 `json:"allocs_per_call"`
	BytesPerCall  float64 `json:"bytes_per_call"`
	// SelfNsEst is P50Ns minus the children's P50Ns: an estimate by
	// subtraction, since children are measured in separate calls.
	SelfNsEst float64 `json:"self_ns_est"`
}

// ladderResult is one workload's traced run, as written to trace.json.
type ladderResult struct {
	Workload string    `json:"workload"`
	Requests int       `json:"requests"`
	Spans    []span    `json:"spans"`
	Rungs    []rungRow `json:"rungs"`
	// TracingOverheadNs is the e2e rung's p50 minus the e2e.untraced p50.
	TracingOverheadNs float64            `json:"tracing_overhead_ns"`
	Metrics           map[string]float64 `json:"metrics"`
}

// rung is one layer's call for pool body b; prep, when set, runs untimed
// before it. call returns how many calls into the layer it made.
type rung struct {
	id   int
	prep func(b int) error
	call func(b int) (int, error)
}

// serveInProcess runs one request through h into a recorder.
func serveInProcess(h http.Handler, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/invoke", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// ladderRungs builds the workload's rungs in call order over the first
// nBodies pool bodies, each reference rung right after the rung it is
// compared with. closeAll releases what they hold.
func ladderRungs(w *workload, topo *topology, p *pool, kernels []*kernel, pkgDir string, nBodies int) (rs []rung, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for _, c := range closers {
			c()
		}
	}
	post := func(c *conn) func(b int) (int, error) {
		return func(b int) (int, error) { _, err := c.post(p.bodies[b], nil); return 1, err }
	}
	front := newConn(topo.url)
	closers = append(closers, front.close)
	rs = append(rs, rung{id: rE2E, call: post(front)}, rung{id: rUntraced, call: post(front)})

	owner := make([]int, nBodies)
	for b := range owner {
		owner[b] = topo.node(p.tenant[b])
	}
	handlers := make([]http.Handler, len(topo.nodes))
	for i, s := range topo.nodes {
		handlers[i] = s.Handler()
	}
	if w.Routed {
		rh := topo.harness.Router.Handler()
		nodes := make([]*conn, len(topo.nodeURLs))
		for i, u := range topo.nodeURLs {
			nodes[i] = newConn(u)
			closers = append(closers, nodes[i].close)
		}
		rs = append(rs,
			rung{id: rRoute, call: func(b int) (int, error) { _, err := serveInProcess(rh, p.bodies[b]); return 1, err }},
			rung{id: rNodePost, call: func(b int) (int, error) { _, err := nodes[owner[b]].post(p.bodies[b], nil); return 1, err }})
	}
	raw := make([][]byte, nBodies)
	rs = append(rs, rung{id: rHandler, call: func(b int) (int, error) {
		var err error
		raw[b], err = serveInProcess(handlers[owner[b]], p.bodies[b])
		return 1, err
	}})
	if w.Routed {
		twin, err := newNode(pkgDir, nodeOptions(&workload{TOQ: w.TOQ}))
		if err != nil {
			return nil, closeAll, err
		}
		closers = append(closers, func() { _ = twin.Shutdown(context.Background()) }) // no state file to write
		th := twin.Handler()
		rs = append(rs, rung{id: rObsOff, call: func(b int) (int, error) { _, err := serveInProcess(th, p.bodies[b]); return 1, err }})
	}
	var req server.InvokeRequest
	rs = append(rs, rung{id: rDecode, call: func(b int) (int, error) {
		// Reuse the decoded rows' capacity, as the server's request pool does.
		req = server.InvokeRequest{Inputs: req.Inputs[:0]}
		return 1, json.NewDecoder(bytes.NewReader(p.bodies[b])).Decode(&req)
	}})

	// Core rungs run on tenant copies the benchmark owns: same mode, target,
	// checker, BatchSize and InvocationSize as the server's tenants.
	type tenantCopy struct {
		acc   *accel.Accelerator
		tuner *core.Tuner
	}
	byKey := map[string]*tenantCopy{}
	copyOf := make([]*tenantCopy, nBodies)
	for b := range copyOf {
		key := p.tenant[b] + "/" + kernels[p.kernel[b]].spec.Name
		if byKey[key] == nil {
			tc := &tenantCopy{}
			if tc.acc, err = kernels[p.kernel[b]].newAccel(); err != nil {
				return nil, closeAll, err
			}
			if tc.tuner, err = core.NewTuner(core.ModeTOQ, w.TOQ); err != nil {
				return nil, closeAll, err
			}
			byKey[key] = tc
		}
		copyOf[b] = byKey[key]
	}
	reg := obs.NewRegistry()
	results := make([][]core.StreamResult, nBodies)
	rs = append(rs, rung{id: rStream, call: func(b int) (int, error) {
		k, tc := kernels[p.kernel[b]], copyOf[b]
		st, err := core.NewStream(core.Config{Spec: k.spec, Accel: tc.acc, Checker: k.checker, Tuner: tc.tuner,
			InvocationSize: 512, BatchSize: detectChunk, Metrics: reg}, 1)
		if err != nil {
			return 0, err
		}
		results[b], err = st.ProcessSlice(context.Background(), p.inputs[b])
		return 1, err
	}})

	accs := make([]*accel.Accelerator, len(kernels))
	for k, kn := range kernels {
		if accs[k], err = kn.newAccel(); err != nil {
			return nil, closeAll, err
		}
	}
	outs := make([][][]float64, nBodies)
	for b := range outs {
		outs[b] = make([][]float64, len(p.inputs[b]))
		for j := range outs[b] {
			outs[b][j] = make([]float64, kernels[p.kernel[b]].spec.OutDim)
		}
	}
	chunks := func(b int, fn func(lo, hi int)) int {
		calls := 0
		for lo := 0; lo < len(p.inputs[b]); lo += detectChunk {
			fn(lo, min(lo+detectChunk, len(p.inputs[b])))
			calls++
		}
		return calls
	}
	preds := make([]float64, detectChunk)
	var fired []int
	resp := &server.InvokeResponse{}
	rs = append(rs,
		rung{id: rAccel, call: func(b int) (int, error) {
			a := accs[p.kernel[b]]
			return chunks(b, func(lo, hi int) { a.InvokeBatch(outs[b][lo:hi], p.inputs[b][lo:hi]) }), nil
		}},
		rung{id: rPredict, call: func(b int) (int, error) {
			c := kernels[p.kernel[b]].checker
			return chunks(b, func(lo, hi int) { c.PredictErrorBatch(preds[:hi-lo], p.inputs[b][lo:hi], outs[b][lo:hi]) }), nil
		}},
		rung{id: rExact,
			prep: func(b int) error {
				fired = fired[:0]
				for j, r := range results[b] {
					if r.Fixed || r.Degraded {
						fired = append(fired, j)
					}
				}
				return nil
			},
			call: func(b int) (int, error) {
				exact := kernels[p.kernel[b]].spec.Exact
				for _, j := range fired {
					exact(p.inputs[b][j])
				}
				return len(fired), nil
			}},
		rung{id: rEncode,
			prep: func(b int) error { *resp = server.InvokeResponse{}; return json.Unmarshal(raw[b], resp) },
			call: func(int) (int, error) { _, err := json.Marshal(resp); return 1, err }})
	return rs, closeAll, nil
}

// runLadder feeds n requests, cycling over the pool, through every rung. It
// makes three passes, all serial on this goroutine: a warm-up over the
// first warmReqs requests with the rungs interleaved; an allocation pass
// over the same requests rung by rung, reading runtime mallocs around each
// call (process-wide, so background loops add a little); and the timed pass
// over all n requests with the rungs interleaved per request, so that host
// drift hits every rung alike, recording one span per call.
func runLadder(w *workload, topo *topology, p *pool, kernels []*kernel, pkgDir string, n int) (*ladderResult, error) {
	parent := [nRungs]int{rE2E: noParent, rRoute: rE2E, rNodePost: rRoute, rHandler: rE2E,
		rDecode: rHandler, rStream: rHandler, rEncode: rHandler, rAccel: rStream, rPredict: rStream, rExact: rStream,
		rUntraced: noParent, rObsOff: noParent}
	if w.Routed {
		parent[rHandler] = rNodePost
	}
	nBodies := min(n, len(p.bodies))
	rs, closeAll, err := ladderRungs(w, topo, p, kernels, pkgDir, nBodies)
	defer closeAll()
	if err != nil {
		return nil, err
	}
	// do runs rung r for ladder request i; mark, when set, runs right
	// before and right after the call, outside prep.
	do := func(r rung, i int, mark func()) (int, time.Time, time.Time, error) {
		b := i % nBodies
		if r.prep != nil {
			if err := r.prep(b); err != nil {
				return 0, time.Time{}, time.Time{}, fmt.Errorf("%s: request %d: %w", rungNames[r.id], i, err)
			}
		}
		if mark != nil {
			mark()
		}
		t0 := time.Now()
		c, err := r.call(b)
		t1 := time.Now()
		if mark != nil {
			mark()
		}
		if err != nil {
			err = fmt.Errorf("%s: request %d: %w", rungNames[r.id], i, err)
		}
		return c, t0, t1, err
	}
	warm := min(n, warmReqs)
	for i := 0; i < warm; i++ {
		for _, r := range rs {
			if _, _, _, err := do(r, i, nil); err != nil {
				return nil, err
			}
		}
	}

	var allocs, bytesPer [nRungs]float64
	for _, r := range rs {
		var mallocs, total uint64
		var m0, m1 runtime.MemStats
		before := true
		mark := func() {
			if before {
				runtime.ReadMemStats(&m0)
			} else {
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				total += m1.TotalAlloc - m0.TotalAlloc
			}
			before = !before
		}
		calls := 0
		for i := 0; i < warm; i++ {
			c, _, _, err := do(r, i, mark)
			if err != nil {
				return nil, err
			}
			calls += c
		}
		allocs[r.id] = float64(mallocs) / float64(max(calls, 1))
		bytesPer[r.id] = float64(total) / float64(max(calls, 1))
	}

	// Odd requests run each reference rung before its counterpart, so that
	// running second (warm connection, warm caches) favours neither.
	swapped := append([]rung(nil), rs...)
	for k := 1; k < len(swapped); k++ {
		if swapped[k].id == rUntraced || swapped[k].id == rObsOff {
			swapped[k-1], swapped[k] = swapped[k], swapped[k-1]
		}
	}
	var ns [nRungs][]float64
	var calls [nRungs]int
	res := &ladderResult{Workload: w.Name, Requests: n, Metrics: map[string]float64{}}
	res.Spans = make([]span, 0, n*len(rs))
	start := time.Now()
	for i := 0; i < n; i++ {
		order := rs
		if i%2 == 1 {
			order = swapped
		}
		for _, r := range order {
			c, t0, t1, err := do(r, i, nil)
			if err != nil {
				return nil, err
			}
			ns[r.id] = append(ns[r.id], float64(t1.Sub(t0)))
			calls[r.id] += c
			if r.id != rUntraced && r.id != rObsOff {
				sp := span{Req: i, ID: i*nRungs + r.id, Parent: noParent, Name: rungNames[r.id],
					Start: t0.Sub(start).Nanoseconds(), End: t1.Sub(start).Nanoseconds()}
				if parent[r.id] != noParent {
					sp.Parent = i*nRungs + parent[r.id]
				}
				res.Spans = append(res.Spans, sp)
			}
		}
	}

	med := func(r int) float64 { return median(ns[r]) }
	self := func(r int) float64 {
		s := med(r)
		for c := range parent {
			if parent[c] == r && ns[c] != nil {
				s -= med(c)
			}
		}
		return s
	}
	for _, r := range rs {
		row := rungRow{Name: rungNames[r.id], Calls: calls[r.id], P50Ns: med(r.id), P90Ns: quantile(append([]float64(nil), ns[r.id]...), 0.9),
			AllocsPerCall: allocs[r.id], BytesPerCall: bytesPer[r.id], SelfNsEst: self(r.id)}
		row.NsPerElem = row.P50Ns / float64(w.Elems)
		if r.id == rExact {
			row.NsPerElem = sum(ns[r.id]) / float64(max(calls[r.id], 1)) // per fired element
		}
		if parent[r.id] != noParent {
			row.Parent = rungNames[parent[r.id]]
		}
		res.Rungs = append(res.Rungs, row)
	}
	res.TracingOverheadNs = med(rE2E) - med(rUntraced)

	m := res.Metrics
	elems := float64(w.Elems)
	m["accel.ns_per_elem"] = med(rAccel) / elems
	m["accel.allocs_per_call"] = allocs[rAccel]
	m["predictor.ns_per_elem"] = med(rPredict) / elems
	m["predictor.over_accel"] = med(rPredict) / med(rAccel)
	m["exact.ns_per_fire"] = sum(ns[rExact]) / float64(max(calls[rExact], 1))
	m["core.ns_per_req"] = med(rStream)
	m["core.self_ns_per_req"] = self(rStream)
	m["core.allocs_per_req"] = allocs[rStream]
	m["core.bytes_per_req"] = bytesPer[rStream]
	m["server.handler_ns_per_req"] = med(rHandler)
	m["server.self_ns_per_req"] = self(rHandler)
	m["server.decode_ns_per_req"] = med(rDecode)
	m["server.encode_ns_per_req"] = med(rEncode)
	m["server.allocs_per_req"] = allocs[rHandler]
	m["http.self_ns_per_req"] = med(rE2E) - med(rHandler)
	m["cluster.route_ns_per_req"], m["cluster.self_ns_per_req"], m["obs.overhead_ns_per_req"] = 0, 0, 0
	if w.Routed {
		m["http.self_ns_per_req"] = med(rNodePost) - med(rHandler)
		m["cluster.route_ns_per_req"] = med(rRoute)
		m["cluster.self_ns_per_req"] = med(rRoute) - med(rNodePost)
		m["obs.overhead_ns_per_req"] = med(rHandler) - med(rObsOff)
	}
	return res, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// printRungs writes the per-rung table.
func printRungs(out io.Writer, l *ladderResult) {
	fmt.Fprintf(out, "\n%s: layer ladder over %d requests (ns; self = p50 minus children's p50, an estimate by subtraction)\n", l.Workload, l.Requests)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "rung\tparent\tcalls\tp50/req\tp90/req\tns/elem\tallocs/call\tself (est.)\t")
	for _, r := range l.Rungs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%.0f\t%.1f\t%.1f\t%.0f\t\n", r.Name, r.Parent, r.Calls, r.P50Ns, r.P90Ns, r.NsPerElem, r.AllocsPerCall, r.SelfNsEst)
	}
	_ = tw.Flush()
	fmt.Fprintf(out, "tracing overhead: e2e p50 minus e2e.untraced p50 = %+.0f ns\n", l.TracingOverheadNs)
}
