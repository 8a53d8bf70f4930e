package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"rumba/internal/rng"
)

// This file pins the batched detection path (Config.BatchSize > 1) to the
// scalar runtime: identical outputs, flags and counters at every batch
// size, and clean teardown under cancellation mid-batch.

func newBatchStressStream(t *testing.T, c stressCase, batch int) *Stream {
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
		BatchSize:        batch,
	}, c.workers)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewSystemRejectsNegativeBatchSize(t *testing.T) {
	_, err := NewSystem(Config{Spec: stressSpec(), Accel: stressExec{}, BatchSize: -1})
	if err == nil {
		t.Fatal("negative batch size must be rejected")
	}
}

// TestStreamBatchSizesIdenticalResults runs one input set through the
// runtime at several batch sizes (including ragged tails and a batch larger
// than the element count) and requires bit-identical results: order,
// outputs, flags, predictions and the fire/fix counters.
func TestStreamBatchSizesIdenticalResults(t *testing.T) {
	r := rng.NewNamed("stream-batch/identical")
	c := stressCase{workers: 2, invocationSize: 37, elements: 500}
	inputs, fires := genStressInputs(r, c)

	run := func(batch int) []StreamResult {
		st := newBatchStressStream(t, c, batch)
		res, err := st.ProcessSlice(context.Background(), inputs)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		snap := st.Metrics().Snapshot()
		if n := snap.Counters[MetricFires]; n != int64(fires) {
			t.Fatalf("batch %d: %d fires, want %d", batch, n, fires)
		}
		if n := snap.Counters[MetricElementsIn]; n != int64(c.elements) {
			t.Fatalf("batch %d: %d elements in, want %d", batch, n, c.elements)
		}
		return res
	}

	want := run(1)
	for _, batch := range []int{2, 7, 64, 501} {
		got := run(batch)
		if len(got) != len(want) {
			t.Fatalf("batch %d delivered %d elements, scalar %d", batch, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Index != w.Index || g.Fixed != w.Fixed || g.Degraded != w.Degraded {
				t.Fatalf("batch %d element %d: %+v != scalar %+v", batch, i, g, w)
			}
			if math.Float64bits(g.PredictedError) != math.Float64bits(w.PredictedError) {
				t.Fatalf("batch %d element %d: prediction %v != %v", batch, i, g.PredictedError, w.PredictedError)
			}
			for j := range w.Output {
				if math.Float64bits(g.Output[j]) != math.Float64bits(w.Output[j]) {
					t.Fatalf("batch %d element %d out[%d]: %v != %v", batch, i, j, g.Output[j], w.Output[j])
				}
			}
		}
	}
}

// TestStreamBatchCancellationLeaksNothing cancels batched streams mid-run
// (randomised batch sizes and failure-mode kernels) and asserts the
// delivered prefix is in order and every goroutine exits.
func TestStreamBatchCancellationLeaksNothing(t *testing.T) {
	for seed := 0; seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := runtime.NumGoroutine()
			r := rng.NewNamed(fmt.Sprintf("stream-batch/cancel/%d", seed))
			c := randomCase(r, 400)
			batch := 1 + r.Intn(96)
			inputs, _ := genStressInputs(r, c)
			st := newBatchStressStream(t, c, batch)

			ctx, cancel := context.WithCancel(context.Background())
			// The producer watches ctx, so the test owns no leak of its own.
			ch := make(chan []float64)
			go func() {
				defer close(ch)
				for _, in := range inputs {
					select {
					case ch <- in:
					case <-ctx.Done():
						return
					}
				}
			}()
			out, err := st.Process(ctx, ch)
			if err != nil {
				t.Fatal(err)
			}
			stopAfter := 1 + r.Intn(c.elements/2)
			next := 0
			for res := range out {
				if res.Index != next {
					t.Fatalf("out of order: got %d, want %d", res.Index, next)
				}
				next++
				if next == stopAfter {
					cancel()
				}
			}
			cancel()
			if next < stopAfter {
				t.Fatalf("delivered %d before cancellation at %d", next, stopAfter)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestStreamBatchChannelSourceGathersQueuedInputs checks the channel-fed
// path under batching: a pre-filled buffered channel is consumed correctly
// and completely, with results identical to the slice path.
func TestStreamBatchChannelSourceGathersQueuedInputs(t *testing.T) {
	r := rng.NewNamed("stream-batch/chan")
	c := stressCase{workers: 2, invocationSize: 50, elements: 257}
	inputs, _ := genStressInputs(r, c)

	want, err := newBatchStressStream(t, c, 32).ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	// All inputs queued up front: the gather loop sees full batches.
	ch := make(chan []float64, len(inputs))
	for _, in := range inputs {
		ch <- in
	}
	close(ch)
	st := newBatchStressStream(t, c, 32)
	out, err := st.Process(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for got := range out {
		w := want[i]
		if got.Index != w.Index || got.Fixed != w.Fixed || got.Degraded != w.Degraded ||
			math.Float64bits(got.Output[0]) != math.Float64bits(w.Output[0]) {
			t.Fatalf("element %d: %+v != slice-path %+v", i, got, w)
		}
		i++
	}
	if i != c.elements {
		t.Fatalf("delivered %d of %d", i, c.elements)
	}
}
