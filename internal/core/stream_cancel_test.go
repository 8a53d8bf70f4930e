package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rumba/internal/accel"
	"rumba/internal/energy"
	"rumba/internal/exec"
	"rumba/internal/obs"
	"rumba/internal/predictor"
	"rumba/internal/trace"
)

// cancelAt is both the accelerator and the checker of the cancellation
// table: it cancels the run when stage ("accel", "checker" or "exact")
// reaches the element whose value is at, and otherwise behaves like
// stressExec and scoreChecker.
type cancelAt struct {
	stage  string
	at     float64
	cancel context.CancelFunc
}

func (c *cancelAt) hit(stage string, in []float64) {
	if stage == c.stage && in[0] == c.at {
		c.cancel()
	}
}

func (c *cancelAt) Invoke(in []float64) []float64 {
	c.hit("accel", in)
	return stressExec{}.Invoke(in)
}
func (c *cancelAt) CyclesPerInvocation() float64             { return 64 }
func (c *cancelAt) EnergyPerInvocation(energy.Model) float64 { return 1 }

func (c *cancelAt) Name() string { return "cancel-at" }
func (c *cancelAt) PredictError(in, _ []float64) float64 {
	c.hit("checker", in)
	return in[2]
}
func (c *cancelAt) PredictErrorBatch(dst []float64, ins, outs [][]float64) {
	predictor.ScalarBatch(c, dst, ins, outs)
}
func (c *cancelAt) Cost() predictor.Cost { return predictor.Cost{} }
func (c *cancelAt) Reset()               {}

// TestStreamCancellationTable cancels a 20-element run at BatchSize 8 (chunks
// of 8, 8 and a ragged 4) from inside the accelerator, the checker and the
// exact kernel, at the first, a middle and the last element of every chunk,
// for both entry points, one and four workers, and with and without a
// recovery deadline. The run must report the cancellation, return only the
// chunks before the cancelled one, commit every returned element correctly
// (degraded only where its kernel panics) and leave no goroutine behind.
func TestStreamCancellationTable(t *testing.T) {
	const elements, batch = 20, 8
	inputs := make([][]float64, elements)
	for i := range inputs {
		behaviour, score := float64(behaveNormal), 0.25
		if i%3 == 0 {
			score = 0.75 // fires: threshold pinned at 0.5
		}
		if i%5 == 2 {
			behaviour, score = behavePanic, 0.75
		}
		inputs[i] = []float64{float64(i), behaviour, score}
	}
	for _, stage := range []string{"accel", "checker", "exact"} {
		for _, at := range []int{0, 4, 7, 8, 12, 15, 16, 18, 19} {
			for _, workers := range []int{1, 4} {
				for _, deadline := range []time.Duration{0, time.Second} {
					for _, entry := range []string{"ProcessSlice", "Process"} {
						what := fmt.Sprintf("%s: cancel in %s at element %d, %d workers, deadline %v",
							entry, stage, at, workers, deadline)
						cancelCase(t, what, inputs, batch, stage, at, workers, deadline, entry == "Process")
					}
				}
			}
		}
	}
}

func cancelCase(t *testing.T, what string, inputs [][]float64, batch int, stage string, at, workers int,
	deadline time.Duration, viaChannel bool) {
	t.Helper()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The exact-kernel cancellation needs the element to fire and not panic.
	ins := append([][]float64(nil), inputs...)
	if stage == "exact" {
		ins[at] = []float64{float64(at), behaveNormal, 0.75}
	}
	c := &cancelAt{stage: stage, at: float64(at), cancel: cancel}
	spec := stressSpec()
	spec.Exact = func(in []float64) []float64 {
		c.hit("exact", in)
		return stressKernel(in)
	}
	tuner, err := NewTuner(ModeTOQ, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(Config{Spec: spec, Accel: c, Checker: c, Tuner: tuner, InvocationSize: 4,
		BatchSize: batch, RecoveryDeadline: deadline}, workers)
	if err != nil {
		t.Fatal(err)
	}
	whole := at / batch * batch // the elements of the chunks before the cancelled one
	var got []StreamResult
	if viaChannel {
		ch := make(chan []float64, len(ins)) // all queued: Process gathers full chunks
		for _, in := range ins {
			ch <- in
		}
		close(ch)
		out, err := st.Process(ctx, ch)
		if err != nil {
			t.Fatal(err)
		}
		for r := range out {
			got = append(got, r)
		}
		if len(got) > whole {
			t.Fatalf("%s: delivered %d elements, want at most the %d before the cancelled chunk", what, len(got), whole)
		}
		if ctx.Err() == nil {
			t.Fatalf("%s: the run was never cancelled", what)
		}
	} else {
		got, err = st.ProcessSlice(ctx, ins)
		if !errors.Is(err, context.Canceled) || len(got) != whole {
			t.Fatalf("%s: returned %d elements and %v, want %d and context.Canceled", what, len(got), err, whole)
		}
	}
	for i, r := range got {
		in := ins[i]
		fired := in[2] > 0.5
		ok := r.Index == i && r.PredictedError == in[2]
		switch {
		case !fired:
			ok = ok && !r.Fixed && !r.Degraded && r.Output[0] == in[0]*2+0.125
		case in[1] == behavePanic:
			ok = ok && !r.Fixed && r.Degraded && r.Output[0] == in[0]*2+0.125
		default:
			ok = ok && r.Fixed && !r.Degraded && r.Observed && r.Output[0] == in[0]*2
		}
		if !ok {
			t.Fatalf("%s: element %d committed as %+v", what, i, r)
		}
	}
	waitForGoroutines(t, base)
}

// batchCancelExec cancels the run inside its second InvokeBatch call and
// keeps that call open for 50ms; finished reports that the call returned.
type batchCancelExec struct {
	stressExec
	cancel   context.CancelFunc
	calls    int
	finished atomic.Bool
}

func (e *batchCancelExec) InvokeBatch(dst, ins [][]float64) {
	for i, in := range ins {
		dst[i][0] = in[0]*2 + 0.125
	}
	if e.calls++; e.calls == 2 {
		e.cancel()
		time.Sleep(50 * time.Millisecond)
		e.finished.Store(true)
	}
}

// TestProcessSliceLeavesNothingRunning: when a request is cancelled, the
// tenant's accelerator, checker and tuner pass to its next request as soon
// as ProcessSlice returns, so no call into them may still be running.
func TestProcessSliceLeavesNothingRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &batchCancelExec{cancel: cancel}
	tuner, err := NewTuner(ModeTOQ, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(Config{Spec: stressSpec(), Accel: ex, Checker: scoreChecker{}, Tuner: tuner, BatchSize: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{float64(i), behaveNormal, 0.25}
	}
	got, err := st.ProcessSlice(ctx, inputs)
	if !ex.finished.Load() {
		t.Fatal("ProcessSlice returned while its accelerator call was still running")
	}
	if !errors.Is(err, context.Canceled) || len(got) != 8 {
		t.Fatalf("returned %d results and %v, want the first 8 and context.Canceled", len(got), err)
	}
}

// cancelAfter is an executor with no batch kernel that cancels its run at
// its left-th Invoke call from when left is set.
type cancelAfter struct {
	exec.Executor
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Invoke(in []float64) []float64 {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.Executor.Invoke(in)
}

// TestProcessSliceErrorRestoresStream cancels a ProcessSlice in its sixth
// chunk, after its earlier chunks and the cancelled one itself have closed
// invocations, stepped the Energy tuner and moved the EMA checker's average.
// The failed call must put all three and the position back, so that the
// calls around it deliver what refStream delivers for their elements alone.
func TestProcessSliceErrorRestoresStream(t *testing.T) {
	spec, acc, ps, test := buildRuntime(t, "fft", 200)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &cancelAfter{Executor: acc, cancel: cancel}
	cfg := Config{Spec: spec, Accel: ex, Checker: ps.EMA, InvocationSize: 16, BatchSize: 8}
	var err error
	if cfg.Tuner, err = NewTuner(ModeEnergy, 0.25); err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ProcessSlice(context.Background(), test.Inputs[:37])
	if err != nil {
		t.Fatal(err)
	}
	ex.left = 45
	if res, err := st.ProcessSlice(ctx, test.Inputs[100:]); !errors.Is(err, context.Canceled) || len(res) != 40 {
		t.Fatalf("failed call returned %d results and %v, want 40 and context.Canceled", len(res), err)
	}
	rest, err := st.ProcessSlice(context.Background(), test.Inputs[37:])
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.Accel = acc
	if ref.Tuner, err = NewTuner(ModeEnergy, 0.25); err != nil {
		t.Fatal(err)
	}
	want, _ := refStream(ref, test.Inputs)
	sameResults(t, "calls around a failed one", append(got, rest...), want)
	gotTuner, _ := cfg.Tuner.MarshalJSON()
	if wantTuner, _ := ref.Tuner.MarshalJSON(); !bytes.Equal(gotTuner, wantTuner) {
		t.Fatalf("tuner %s, want %s", gotTuner, wantTuner)
	}
}

// goroutineProbe is an accelerator that records the most goroutines it saw
// running during its batch calls.
type goroutineProbe struct {
	*accel.Accelerator
	most int
}

func (p *goroutineProbe) InvokeBatch(dst, inputs [][]float64) {
	p.most = max(p.most, runtime.NumGoroutine())
	p.Accelerator.InvokeBatch(dst, inputs)
}

// TestProcessSliceAllocs bounds one request's allocations, from NewStream
// through ProcessSlice, as the server runs it: fft, BatchSize 64, one
// worker, tracing off and a shared registry. A request that never fires
// allocates a fixed handful of buffers at any size; one that always fires
// adds only the exact kernel's output per element. No goroutine is started.
func TestProcessSliceAllocs(t *testing.T) {
	spec, acc, _, test := buildRuntime(t, "fft", 300)
	reg := obs.NewRegistry()
	for _, c := range []struct {
		name string
		pred float64
	}{{"never-fires", 0}, {"always-fires", 1}} {
		tuner, err := NewTuner(ModeTOQ, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		probe := &goroutineProbe{Accelerator: acc}
		cfg := Config{Spec: spec, Accel: probe, Checker: &constantChecker{value: c.pred}, Tuner: tuner,
			BatchSize: 64, Metrics: reg}
		for _, n := range []int{8, 256} {
			inputs := test.Inputs[:n]
			base := runtime.NumGoroutine()
			probe.most = 0
			allocs := testing.AllocsPerRun(20, func() {
				st, err := NewStream(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.ProcessSlice(context.Background(), inputs); err != nil {
					t.Fatal(err)
				}
			})
			limit := 8.0
			if c.pred > tuner.Threshold {
				limit += float64(n)
			}
			if allocs > limit {
				t.Errorf("%s, %d elements: %v allocations per request, want at most %v", c.name, n, allocs, limit)
			}
			if probe.most > base {
				t.Errorf("%s, %d elements: %d goroutines ran during the accelerator call, %d before the request",
					c.name, n, probe.most, base)
			}
		}
	}
}

// TestTracedProcessSliceBounds bounds the enabled tracing path: the request
// of TestProcessSliceAllocs with a fresh trace in its context. Recovery is
// one exec.recover span per chunk that fired, so a traced request records
// at most five spans per chunk plus the root, with one or four recovery
// workers, and allocates, the trace's own allocations included, a fixed
// handful plus the exact kernel's output per fired element, whatever its
// fire count.
func TestTracedProcessSliceBounds(t *testing.T) {
	spec, acc, _, test := buildRuntime(t, "fft", 300)
	reg := obs.NewRegistry()
	for _, c := range []struct {
		name string
		pred float64
	}{{"never-fires", 0}, {"always-fires", 1}} {
		tuner, err := NewTuner(ModeTOQ, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Spec: spec, Accel: acc, Checker: &constantChecker{value: c.pred}, Tuner: tuner,
			BatchSize: 64, Metrics: reg}
		for _, n := range []int{8, 256} {
			inputs := test.Inputs[:n]
			run := func(workers int) *trace.Trace {
				tr := trace.New("invoke", 0)
				ctx := trace.NewContext(context.Background(), tr.Root())
				st, err := NewStream(cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.ProcessSlice(ctx, inputs); err != nil {
					t.Fatal(err)
				}
				return tr
			}
			allocs := testing.AllocsPerRun(20, func() { run(1) })
			fires := 0
			if c.pred > tuner.Threshold {
				fires = n
			}
			if limit := float64(24 + fires); allocs > limit {
				t.Errorf("%s, %d elements: %v allocations per traced request, want at most %v", c.name, n, allocs, limit)
			}
			// Four recovery workers record the same spans: the counts are
			// aggregated after the workers join.
			for _, workers := range []int{1, 4} {
				chunks := (n + cfg.BatchSize - 1) / cfg.BatchSize
				snap := run(workers).Snapshot()
				if got, limit := len(snap.Spans), 5*chunks+1; got > limit || snap.DroppedSpans != 0 {
					t.Errorf("%s, %d elements, %d workers: %d spans (%d dropped), want at most %d",
						c.name, n, workers, got, snap.DroppedSpans, limit)
				}
				recovered := 0
				for _, sp := range snap.Spans {
					if sp.Name == "exec.recover" {
						fired, _ := sp.Attrs["fired"].(int64)
						fixed, _ := sp.Attrs["fixed"].(int64)
						if fixed != fired {
							t.Errorf("%s, %d elements, %d workers: recover span %v", c.name, n, workers, sp.Attrs)
						}
						recovered += int(fired)
					}
				}
				if recovered != fires {
					t.Errorf("%s, %d elements, %d workers: exec.recover spans count %d fired elements, want %d",
						c.name, n, workers, recovered, fires)
				}
			}
		}
	}
}
