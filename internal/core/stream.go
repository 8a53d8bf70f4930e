package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rumba/internal/exec"
	"rumba/internal/obs"
	"rumba/internal/predictor"
	"rumba/internal/quality"
	"rumba/internal/trace"
)

// This file is the deployment-shaped variant of the runtime. System.Run is
// the evaluation harness: it measures true errors against known exact
// targets and models recovery instead of running it. Stream is what a real
// application embeds: the exact result of an element is unknown unless the
// recovery module actually computes it.
//
// ProcessSlice and Process run one synchronous chunk engine (runChunk). For
// each Config.BatchSize chunk it detects through the fused accelerator and
// checker batch kernels, decides fires and steps the tuner per element,
// re-executes the fired elements, and commits the chunk into its slots of
// the result slice: index addressing is the output merger of Figures 4 and
// 8. The Figure 8 overlap of detection and recovery is what
// pipeline.Simulate models; the engine does not imitate it with goroutines.
// Successive calls continue one element stream, so how a caller cuts the
// stream into calls changes no result and no tuner step.
//
// Production hardening semantics:
//
//   - Cancellation: nothing a call starts outlives it, except an exact
//     kernel abandoned at its deadline (see runExact). A cancelled
//     ProcessSlice returns the chunks committed before the cancellation
//     plus ctx.Err() and puts the Stream back as the call found it;
//     Process closes its channel after an in-order prefix of them.
//   - Degradation: a fired element whose exact kernel panics or overruns
//     Config.RecoveryDeadline is committed with its approximate output and
//     the Degraded flag — quality degrades for that element, the stream
//     lives.
//   - Bounded memory: a call holds its result slice plus one chunk of
//     scratch, kept by the Stream at the widest chunk it has run; Process
//     holds one chunk plus its result channel, so a slow consumer
//     back-pressures detection.

// Metric names the streaming runtime registers in its obs.Registry. They are
// exported so tests and dashboards reference one set of spellings.
const (
	// MetricElementsIn counts elements accepted by detection.
	MetricElementsIn = "stream.elements_in"
	// MetricElementsOut counts elements committed in order to the caller.
	MetricElementsOut = "stream.elements_out"
	// MetricFires counts detector firings (elements sent to recovery).
	MetricFires = "stream.fires"
	// MetricFixes counts elements exactly re-executed and committed.
	MetricFixes = "stream.fixes"
	// MetricDegraded counts recoveries that panicked or overran the
	// deadline and committed the approximate output instead.
	MetricDegraded = "stream.degraded"
	// MetricInvocations counts tuner invocation boundaries.
	MetricInvocations = "stream.invocations"
	// MetricDetectNs is the per-element detection latency (accelerator
	// invoke + checker) in nanoseconds.
	MetricDetectNs = "stream.latency.detect_ns"
	// MetricRecoverNs is the per-element recovery latency in nanoseconds.
	MetricRecoverNs = "stream.latency.recover_ns"
	// MetricThreshold gauges the tuner threshold trajectory.
	MetricThreshold = "tuner.threshold"
)

// StreamResult is one merged output element.
type StreamResult struct {
	// Index is the element's position in the Stream's element stream, over
	// all its calls; results are delivered in index order.
	Index int
	// Output is the committed value: the accelerator's output, or the
	// exact re-execution when the check fired.
	Output []float64
	// Fixed reports whether the recovery module replaced the element.
	Fixed bool
	// Degraded reports that the detector fired but recovery could not
	// complete (kernel panic or deadline overrun); Output is the
	// approximate result, committed so the stream keeps its ordering
	// guarantee instead of wedging.
	Degraded bool
	// PredictedError is the checker's estimate for the element (zero when
	// running unchecked).
	PredictedError float64
	// ObservedError is the measured error of the approximate output against
	// the exact re-execution, available only when recovery actually computed
	// the exact result (Observed reports availability). It is the online
	// system's only ground-truth error sample and feeds the serving layer's
	// quality-drift monitor.
	ObservedError float64
	// Observed reports that ObservedError carries a real measurement.
	Observed bool
}

// Stream is one online Rumba engine over one element stream, which
// successive ProcessSlice and Process calls continue. It is not safe for
// concurrent use.
type Stream struct {
	sys     *System
	workers int

	// Resolved metric handles; hot paths must not take the registry lock.
	mIn, mOut, mFires, mFixes, mDegraded, mInvocations *obs.Counter
	gThreshold                                         *obs.Gauge
	hDetect, hRecover                                  *obs.Histogram

	// The stream's position, and one chunk's scratch (output rows,
	// predictions, fired slots) grown to the widest chunk run so far.
	next  int
	inv   Carry
	rows  [][]float64
	preds []float64
	fired []int
}

// Carry is a Stream's position inside its current invocation: the elements
// since the last invocation boundary and how many of them fired.
type Carry struct {
	Elements, Fired int
}

// NewStream wraps a System for streaming use and resets its checker once.
// workers bounds the goroutines that re-execute one chunk's fired elements;
// 1 (the paper's single host CPU) re-executes them inline on the caller's
// goroutine, more model a multicore host. workers <= 0 selects 1.
func NewStream(cfg Config, workers int) (*Stream, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	st := &Stream{sys: sys, workers: workers}
	if cfg.Checker != nil {
		cfg.Checker.Reset()
	}
	r := sys.obs
	st.mIn = r.Counter(MetricElementsIn)
	st.mOut = r.Counter(MetricElementsOut)
	st.mFires = r.Counter(MetricFires)
	st.mFixes = r.Counter(MetricFixes)
	st.mDegraded = r.Counter(MetricDegraded)
	st.mInvocations = r.Counter(MetricInvocations)
	st.gThreshold = r.Gauge(MetricThreshold)
	st.hDetect = r.Histogram(MetricDetectNs)
	st.hRecover = r.Histogram(MetricRecoverNs)
	return st, nil
}

// Metrics returns the stream's observability registry (the one supplied in
// Config.Metrics, or the private registry allocated for it).
func (st *Stream) Metrics() *obs.Registry { return st.sys.obs }

// ProcessSlice is the request-shaped entry point: it continues the stream
// over a finite batch of inputs, one Config.BatchSize chunk at a time, and
// returns the in-order results. rumba-serve keeps one Stream per tenant and
// calls it once per request, propagating the request deadline through ctx.
//
// On cancellation (deadline exceeded, client gone) it returns the whole
// chunks committed before the cancellation together with ctx.Err(), and it
// puts the stream's position, its tuner and its checker back as they were
// at the call. Nothing it started is still running when it returns, so the
// next call may run at once.
func (st *Stream) ProcessSlice(ctx context.Context, inputs [][]float64) ([]StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	batch := min(st.sys.cfg.BatchSize, len(inputs))
	st.begin(batch)
	at := st.mark()
	outW := st.sys.cfg.Spec.OutDim
	results := make([]StreamResult, len(inputs))
	// One flat array backs every accelerator output of the request. The
	// rows escape to the caller through StreamResult.Output.
	flat := make([]float64, len(inputs)*outW)
	for lo := 0; lo < len(inputs); lo += batch {
		hi := min(lo+batch, len(inputs))
		if err := st.runChunk(ctx, results[lo:hi], inputs[lo:hi], flat[lo*outW:hi*outW]); err != nil {
			st.rollback(at)
			return results[:lo], err
		}
	}
	return results, nil
}

// Process continues the stream over the input channel and returns the
// merged, in-order result channel. One goroutine gathers each chunk as the
// inputs arrive — it blocks for the chunk's first element, then takes
// whatever else is already queued, so a trickling producer still gets
// per-element latency — runs it through the engine and sends its results in
// order. The channel is closed after the final input's element is
// delivered, or once ctx is cancelled; undelivered elements are then
// dropped, and the stream stays after the last chunk it ran. The call owns
// the Stream until the channel closes.
func (st *Stream) Process(ctx context.Context, inputs <-chan []float64) (<-chan StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	batch := st.sys.cfg.BatchSize
	st.begin(batch)
	// The buffer lets a consumer lag the engine by up to 64 results; a
	// slower one blocks the sends and so back-pressures detection.
	out := make(chan StreamResult, 64)
	go func() {
		defer close(out)
		outW := st.sys.cfg.Spec.OutDim
		buf := make([][]float64, 0, batch)
		res := make([]StreamResult, batch)
		for {
			chunk := gather(ctx, inputs, buf)
			n := len(chunk)
			if n == 0 || st.runChunk(ctx, res[:n], chunk, make([]float64, n*outW)) != nil {
				return
			}
			for _, r := range res[:n] {
				select {
				case out <- r:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out, nil
}

// gather fills buf (from length zero, up to its capacity) with the next
// chunk of inputs: it blocks for the first element, then takes only what is
// already queued. An empty chunk means end of stream or cancellation.
func gather(ctx context.Context, inputs <-chan []float64, buf [][]float64) [][]float64 {
	buf = buf[:0]
	select {
	case <-ctx.Done():
		return nil
	case v, ok := <-inputs:
		if !ok {
			return nil
		}
		buf = append(buf, v)
	}
	for len(buf) < cap(buf) {
		select {
		case v, ok := <-inputs:
			if !ok {
				// Closed mid-fill: the next call's blocking receive sees
				// the close and reports end of stream.
				return buf
			}
			buf = append(buf, v)
		default:
			return buf
		}
	}
	return buf
}

// begin starts a call: it publishes the threshold and grows the chunk
// scratch to chunks of batch elements.
func (st *Stream) begin(batch int) {
	if t := st.sys.cfg.Tuner; t != nil {
		st.gThreshold.Set(t.Threshold)
	}
	if len(st.preds) < batch {
		st.rows = make([][]float64, batch)
		st.preds = make([]float64, batch)
		st.fired = make([]int, 0, batch)
	}
}

// Carry returns the stream's position inside its current invocation.
func (st *Stream) Carry() Carry { return st.inv }

// SetCarry puts the stream c.Elements elements, c.Fired of them fired, into
// an invocation, which closes at Config.InvocationSize elements or, if it
// has them already, at the next element. 0 <= c.Fired <= c.Elements.
func (st *Stream) SetCarry(c Carry) { st.inv = c }

// mark is what a failed ProcessSlice puts back as it was at the call: the
// position, the tuner and an EMA checker's (the only stateful one) average.
type mark struct {
	next  int
	inv   Carry
	tuner Tuner
	ema   predictor.EMA
}

func (st *Stream) mark() mark {
	m := mark{next: st.next, inv: st.inv}
	if t := st.sys.cfg.Tuner; t != nil {
		m.tuner = *t
	}
	if e, ok := st.sys.cfg.Checker.(*predictor.EMA); ok {
		m.ema = *e
	}
	return m
}

func (st *Stream) rollback(m mark) {
	st.next, st.inv = m.next, m.inv
	if t := st.sys.cfg.Tuner; t != nil {
		*t = m.tuner
		st.gThreshold.Set(t.Threshold)
	}
	if e, ok := st.sys.cfg.Checker.(*predictor.EMA); ok {
		*e = m.ema
	}
}

// runChunk is the engine: it runs one chunk of inputs through detection,
// decides fires and steps the tuner per element, re-executes the fired
// elements and commits the chunk into res, writing each element's
// accelerator output into its row of flat. The threshold moves only at
// invocation boundaries, so results are identical at every chunk size and
// at every split of the stream into calls. If
// ctx is cancelled before the commit, runChunk returns ctx.Err() and the
// chunk's results must be discarded.
func (st *Stream) runChunk(ctx context.Context, res []StreamResult, ins [][]float64, flat []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg := &st.sys.cfg
	n, outW := len(ins), cfg.Spec.OutDim
	// The request span (if any) travels in ctx. With tracing disabled it is
	// a zero SpanRef and every span call reduces to a nil check.
	span := trace.FromContext(ctx)
	chunkSp := span.Start("stream.chunk")
	chunkSp.SetInt("elements", int64(n))
	start := time.Now()
	// The three-index slice keeps a fallback executor's fresh rows from
	// being silently clipped by a neighbour's capacity.
	rows := st.rows[:n]
	for i := range rows {
		rows[i] = flat[i*outW : (i+1)*outW : (i+1)*outW]
	}
	exec.InvokeBatchTraced(chunkSp, cfg.Accel, rows, ins)
	if cfg.Checker != nil {
		csp := chunkSp.Start("checker.predict")
		cfg.Checker.PredictErrorBatch(st.preds[:n], ins, rows)
		csp.End()
	}
	perElement := float64(time.Since(start)) / float64(n)
	for range n {
		st.hDetect.Observe(perElement)
	}
	st.mIn.Add(int64(n))

	st.fired = st.fired[:0]
	for i := range n {
		res[i] = StreamResult{Index: st.next, Output: rows[i]}
		if cfg.Checker != nil {
			res[i].PredictedError = st.preds[i]
			if st.preds[i] > cfg.Tuner.Threshold {
				st.fired = append(st.fired, i)
				st.inv.Fired++
				st.mFires.Inc()
			}
		}
		st.next++
		if st.inv.Elements++; st.inv.Elements >= cfg.InvocationSize {
			if cfg.Tuner != nil {
				cfg.Tuner.Observe(InvocationStats{
					Elements:       st.inv.Elements,
					Fixed:          st.inv.Fired,
					CPUUtilisation: EstimateUtilisation(cfg.Accel, cfg.Spec.Cost, st.sys.model, st.inv.Fired, st.inv.Elements),
				})
				st.mInvocations.Inc()
				st.gThreshold.Set(cfg.Tuner.Threshold)
			}
			st.inv = Carry{}
		}
	}
	chunkSp.SetInt("fires", int64(len(st.fired)))
	chunkSp.End()

	st.recoverFired(ctx, span, res, ins)
	if err := ctx.Err(); err != nil {
		return err
	}
	msp := span.Start("merge.commit")
	msp.SetInt("items", int64(n))
	st.mOut.Add(int64(n))
	msp.End()
	return nil
}

// recoverFired re-executes the chunk's fired elements, inline with one
// worker, otherwise on at most st.workers goroutines that have all exited
// when it returns. Each element's result slot is written by exactly one
// goroutine. Once ctx is cancelled the remaining elements are skipped: the
// chunk will not be committed. The chunk's recovery is one exec.recover
// span, whose counts are aggregated from the result slots after the join.
func (st *Stream) recoverFired(ctx context.Context, span trace.SpanRef, res []StreamResult, ins [][]float64) {
	fired := st.fired
	if len(fired) == 0 {
		return
	}
	sp := span.Start("exec.recover")
	defer st.traceRecovery(sp, res)
	k := min(st.workers, len(fired))
	if k <= 1 {
		for _, i := range fired {
			if ctx.Err() != nil {
				return
			}
			st.recoverOne(ctx, &res[i], ins[i])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k)
	for range k {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				j := int(next.Add(1)) - 1
				if j >= len(fired) {
					return
				}
				st.recoverOne(ctx, &res[fired[j]], ins[fired[j]])
			}
		}()
	}
	wg.Wait()
}

// traceRecovery records the chunk's recovery on its exec.recover span: the
// elements fired, fixed and degraded, and the sum and maximum of the
// observed errors of the fixed ones. A degraded element flags the trace.
// With tracing off sp is the zero ref and nothing is aggregated.
func (st *Stream) traceRecovery(sp trace.SpanRef, res []StreamResult) {
	if !sp.Valid() {
		return
	}
	var fixed, degraded int64
	var errSum, errMax float64
	for _, i := range st.fired {
		r := &res[i]
		if r.Degraded {
			degraded++
		}
		if r.Fixed {
			fixed++
		}
		if r.Observed {
			errSum += r.ObservedError
			errMax = max(errMax, r.ObservedError)
		}
	}
	sp.SetInt("fired", int64(len(st.fired)))
	sp.SetInt("fixed", fixed)
	sp.SetInt("degraded", degraded)
	sp.SetFloat("observed_error_sum", errSum)
	sp.SetFloat("observed_error_max", errMax)
	if degraded > 0 {
		sp.AddFlag(trace.FlagDegraded)
	}
	sp.End()
}

// recoverOne re-executes one fired element with panic isolation and the
// per-element deadline, and updates its detected result r in place: the
// exact output (Fixed) when re-execution succeeds, the approximate output
// (Degraded) when the kernel panics, overruns Config.RecoveryDeadline, or
// the stream is cancelled mid-call.
func (st *Stream) recoverOne(ctx context.Context, r *StreamResult, in []float64) {
	start := time.Now()
	exact, ok := st.runExact(ctx, in)
	st.hRecover.Observe(float64(time.Since(start)))
	if !ok {
		st.mDegraded.Inc()
		r.Degraded = true
		return
	}
	st.mFixes.Inc()
	// The exact recomputation is the one moment the online system holds
	// ground truth: score the approximate output against it. This observed
	// error calibrates the checker and feeds the drift monitor upstream.
	obsErr := quality.ElementError(st.sys.cfg.Spec.Metric, exact, r.Output, st.sys.cfg.Spec.Scale)
	r.Output, r.Fixed, r.ObservedError, r.Observed = exact, true, obsErr, true
}

// runExact invokes the exact kernel with panic isolation. With a deadline
// configured the call races a timer on a helper goroutine; an overrunning
// kernel is abandoned (it holds no locks — kernels are pure — so it simply
// finishes on its own and is garbage collected).
func (st *Stream) runExact(ctx context.Context, in []float64) (out []float64, ok bool) {
	if st.sys.cfg.RecoveryDeadline <= 0 {
		return st.callExact(in)
	}
	// The helper goroutine can be abandoned past the deadline and finish
	// long after the stream completed, so it must not retain caller-owned
	// input memory — a serving layer recycles request buffers as soon as
	// ProcessSlice returns.
	in = append([]float64(nil), in...)
	type exactResult struct {
		out []float64
		ok  bool
	}
	done := make(chan exactResult, 1) // buffered: an abandoned call must not leak its goroutine
	go func() {
		o, k := st.callExact(in)
		done <- exactResult{out: o, ok: k}
	}()
	timer := time.NewTimer(st.sys.cfg.RecoveryDeadline)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.out, r.ok
	case <-timer.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// callExact runs the kernel, converting a panic into a degraded verdict.
func (st *Stream) callExact(in []float64) (out []float64, ok bool) {
	defer func() {
		if recover() != nil {
			out, ok = nil, false
		}
	}()
	return st.sys.cfg.Spec.Exact(in), true
}

// StreamStats summarises a finished streaming run against known targets; it
// is a test/evaluation convenience, not part of the online path.
type StreamStats struct {
	Elements int
	Fixed    int
	// Degraded counts elements whose recovery panicked or timed out and
	// whose approximate output was committed instead.
	Degraded    int
	OutputError float64
}

// EvaluateStream drains a result channel and scores it against the exact
// targets (evaluation only — the online system never sees these).
func EvaluateStream(results <-chan StreamResult, targets [][]float64, metric quality.Metric, scale float64) (StreamStats, error) {
	var st StreamStats
	var sum float64
	next := 0
	for r := range results {
		if r.Index != next {
			return st, fmt.Errorf("core: out-of-order result %d, want %d", r.Index, next)
		}
		if r.Index >= len(targets) {
			return st, fmt.Errorf("core: result index %d beyond %d targets", r.Index, len(targets))
		}
		sum += quality.ElementError(metric, targets[r.Index], r.Output, scale)
		if r.Fixed {
			st.Fixed++
		}
		if r.Degraded {
			st.Degraded++
		}
		st.Elements++
		next++
	}
	if st.Elements > 0 {
		st.OutputError = sum / float64(st.Elements)
	}
	return st, nil
}
