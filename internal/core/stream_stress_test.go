package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rumba/internal/bench"
	"rumba/internal/energy"
	"rumba/internal/predictor"
	"rumba/internal/quality"
	"rumba/internal/rng"
)

// This file is the streaming runtime's stress/soak suite: randomized worker
// counts and invocation sizes, with artificially panicking and slow kernels,
// asserting the hardening contract — in-order exactly-once delivery,
// fires == fixes + degradations, and zero leaked goroutines on both normal
// completion and mid-stream cancellation. ci.sh runs it under -race.

// Stress inputs are triples {value, behaviour, score}: behaviour selects the
// exact kernel's failure mode, score is the checker's predicted error.
const (
	behaveNormal = 0
	behavePanic  = 1
	behaveSlow   = 2
)

// stressKernel is the exact kernel of the synthetic stress benchmark.
// behavePanic panics (testing panic isolation); behaveSlow busy-loops for a
// few milliseconds (testing the per-job deadline; the loop always
// terminates, so abandoned calls drain during the settle loop).
func stressKernel(in []float64) []float64 {
	switch in[1] {
	case behavePanic:
		panic("stress: kernel panic requested")
	case behaveSlow:
		x := in[0]
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		if x > 1e300 { // never true; defeats dead-code elimination
			return []float64{x}
		}
	}
	return []float64{in[0] * 2}
}

func stressSpec() *bench.Spec {
	return &bench.Spec{
		Name:   "stress",
		InDim:  3,
		OutDim: 1,
		Exact:  stressKernel,
		Metric: quality.MeanRelativeError,
		Scale:  1,
	}
}

// stressExec is a trivial executor: the "approximate" output is the input
// doubled with a small bias, so fixed elements (exactly 2*in[0]) are
// distinguishable from degraded ones.
type stressExec struct{}

func (stressExec) Invoke(in []float64) []float64            { return []float64{in[0]*2 + 0.125} }
func (stressExec) CyclesPerInvocation() float64             { return 64 }
func (stressExec) EnergyPerInvocation(energy.Model) float64 { return 1 }

// scoreChecker reads the pre-assigned score from the input triple.
type scoreChecker struct{}

func (scoreChecker) Name() string                         { return "score" }
func (scoreChecker) PredictError(in, _ []float64) float64 { return in[2] }
func (c scoreChecker) PredictErrorBatch(dst []float64, ins, outs [][]float64) {
	predictor.ScalarBatch(c, dst, ins, outs)
}
func (scoreChecker) Cost() predictor.Cost { return predictor.Cost{} }
func (scoreChecker) Reset()               {}

// waitForGoroutines polls until the goroutine count settles back to the
// baseline; abandoned deadline-overrun kernels finish on their own, so a
// settle loop (not an instant check) is the correct leak detector.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stressCase is one randomized configuration of the runtime.
type stressCase struct {
	workers, invocationSize, elements int
	deadline                          time.Duration
	panicFrac, slowFrac               float64
}

func randomCase(r *rng.Stream, elements int) stressCase {
	c := stressCase{
		workers:        1 + r.Intn(6),
		invocationSize: 16 + r.Intn(100),
		elements:       elements,
		panicFrac:      0.1,
	}
	if r.Bool(0.5) {
		// Only run slow kernels when a deadline protects the stream from
		// paying their full latency per job.
		c.deadline = 2 * time.Millisecond
		c.slowFrac = 0.03
	}
	return c
}

// genStressInputs builds the input triples and returns how many elements
// will fire (score above the pinned 0.5 threshold).
func genStressInputs(r *rng.Stream, c stressCase) (inputs [][]float64, fires int) {
	inputs = make([][]float64, c.elements)
	for i := range inputs {
		behaviour := float64(behaveNormal)
		if r.Bool(c.panicFrac) {
			behaviour = behavePanic
		} else if r.Bool(c.slowFrac) {
			behaviour = behaveSlow
		}
		score := r.Float64() // threshold pinned at 0.5 → fires iff > 0.5
		if score > 0.5 {
			fires++
		}
		inputs[i] = []float64{1 + r.Float64(), behaviour, score}
	}
	return inputs, fires
}

func newStressStream(t *testing.T, c stressCase) *Stream {
	t.Helper()
	tuner, err := NewTuner(ModeTOQ, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(Config{
		Spec:             stressSpec(),
		Accel:            stressExec{},
		Checker:          scoreChecker{},
		Tuner:            tuner,
		InvocationSize:   c.invocationSize,
		RecoveryDeadline: c.deadline,
	}, c.workers)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStreamStressRandomizedCompletion(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Baseline inside the subtest: the parent goroutine is parked in
			// t.Run and must count toward it.
			base := runtime.NumGoroutine()
			r := rng.NewNamed(fmt.Sprintf("stream-stress/completion/%d", seed))
			c := randomCase(r, 300)
			inputs, fires := genStressInputs(r, c)
			st := newStressStream(t, c)
			out, err := st.Process(context.Background(), feedInputs(inputs))
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			fixed, degraded := 0, 0
			for res := range out {
				if res.Index != next {
					t.Fatalf("out of order: got %d, want %d", res.Index, next)
				}
				switch {
				case res.Fixed:
					fixed++
					if res.Output[0] != inputs[res.Index][0]*2 {
						t.Fatalf("fixed element %d is not exact: %v", res.Index, res.Output)
					}
				case res.Degraded:
					degraded++
					if res.Output[0] != inputs[res.Index][0]*2+0.125 {
						t.Fatalf("degraded element %d did not commit the approximate output: %v", res.Index, res.Output)
					}
				}
				next++
			}
			if next != c.elements {
				t.Fatalf("delivered %d of %d elements", next, c.elements)
			}
			if fixed+degraded != fires {
				t.Fatalf("fires %d != fixed %d + degraded %d", fires, fixed, degraded)
			}
			snap := st.Metrics().Snapshot()
			if snap.Counters[MetricElementsIn] != int64(c.elements) || snap.Counters[MetricElementsOut] != int64(c.elements) {
				t.Fatalf("element counters disagree with delivery: %+v", snap.Counters)
			}
			if snap.Counters[MetricFires] != int64(fires) || snap.Counters[MetricFixes] != int64(fixed) || snap.Counters[MetricDegraded] != int64(degraded) {
				t.Fatalf("fire/fix/degrade counters disagree: %+v", snap.Counters)
			}
			waitForGoroutines(t, base)
		})
	}
}

func TestStreamStressCancellationLeaksNothing(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := runtime.NumGoroutine()
			r := rng.NewNamed(fmt.Sprintf("stream-stress/cancel/%d", seed))
			c := randomCase(r, 100_000) // far more than will be consumed
			st := newStressStream(t, c)

			ctx, cancel := context.WithCancel(context.Background())
			// An endless producer: cancellation, not input exhaustion, must
			// end the run. The producer itself watches ctx so the test owns
			// no leak of its own.
			inputs := make(chan []float64)
			go func() {
				defer close(inputs)
				gen := rng.NewNamed(fmt.Sprintf("stream-stress/cancel-inputs/%d", seed))
				for {
					in := []float64{1 + gen.Float64(), behaveNormal, gen.Float64()}
					if gen.Bool(c.panicFrac) {
						in[1] = behavePanic
					}
					select {
					case inputs <- in:
					case <-ctx.Done():
						return
					}
				}
			}()
			out, err := st.Process(ctx, inputs)
			if err != nil {
				t.Fatal(err)
			}
			consume := 1 + r.Intn(200)
			next := 0
			for res := range out {
				if res.Index != next {
					t.Fatalf("out of order: got %d, want %d", res.Index, next)
				}
				next++
				if next == consume {
					cancel()
					// Keep draining: the stream may deliver a few more
					// buffered elements before it observes cancellation,
					// and they must still arrive in order.
				}
			}
			if next < consume {
				t.Fatalf("consumed %d before the channel closed, want at least %d", next, consume)
			}
			cancel()
			waitForGoroutines(t, base)
		})
	}
}

// TestStreamPanickingKernelDegrades pins the degradation contract in the
// worst case: every element fires and every recovery panics. The stream must
// still deliver everything, flagged Degraded, with the approximate outputs.
func TestStreamPanickingKernelDegrades(t *testing.T) {
	base := runtime.NumGoroutine()
	c := stressCase{workers: 3, invocationSize: 32, elements: 200}
	st := newStressStream(t, c)
	inputs := make([][]float64, c.elements)
	for i := range inputs {
		inputs[i] = []float64{float64(i + 1), behavePanic, 1} // score 1 → always fires
	}
	out, err := st.Process(context.Background(), feedInputs(inputs))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for res := range out {
		if res.Index != next {
			t.Fatalf("out of order: got %d, want %d", res.Index, next)
		}
		if !res.Degraded || res.Fixed {
			t.Fatalf("element %d: want Degraded, got %+v", res.Index, res)
		}
		if res.Output[0] != inputs[res.Index][0]*2+0.125 {
			t.Fatalf("element %d did not commit the approximate output", res.Index)
		}
		next++
	}
	if next != c.elements {
		t.Fatalf("delivered %d of %d", next, c.elements)
	}
	snap := st.Metrics().Snapshot()
	if snap.Counters[MetricDegraded] != int64(c.elements) || snap.Counters[MetricFixes] != 0 {
		t.Fatalf("degradation counters wrong: %+v", snap.Counters)
	}
	waitForGoroutines(t, base)
}

// TestStreamDeadlineDegradesSlowKernel: a kernel that overruns the per-job
// deadline must degrade rather than stall the stream; without a deadline the
// same kernel would simply be waited for.
func TestStreamDeadlineDegradesSlowKernel(t *testing.T) {
	base := runtime.NumGoroutine()
	c := stressCase{
		workers: 2, invocationSize: 32, elements: 8, deadline: time.Millisecond,
	}
	st := newStressStream(t, c)
	inputs := make([][]float64, c.elements)
	for i := range inputs {
		inputs[i] = []float64{float64(i + 1), behaveSlow, 1}
	}
	out, err := st.Process(context.Background(), feedInputs(inputs))
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for res := range out {
		if res.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("a 1ms deadline against a multi-ms kernel never degraded")
	}
	waitForGoroutines(t, base)
}
