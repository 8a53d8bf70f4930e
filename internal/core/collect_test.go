package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func newCollectStream(t *testing.T, workers int) *Stream {
	t.Helper()
	tuner, err := NewTuner(ModeTOQ, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(Config{
		Spec:    stressSpec(),
		Accel:   stressExec{},
		Checker: scoreChecker{},
		Tuner:   tuner,
	}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestProcessSliceDeliversInOrder(t *testing.T) {
	st := newCollectStream(t, 2)
	inputs := make([][]float64, 200)
	fires := 0
	for i := range inputs {
		score := 0.25
		if i%3 == 0 {
			score = 0.75 // above the pinned 0.5 threshold
			fires++
		}
		inputs[i] = []float64{float64(i), behaveNormal, score}
	}
	results, err := st.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(inputs) {
		t.Fatalf("got %d results, want %d", len(results), len(inputs))
	}
	fixed := 0
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		want := float64(i)*2 + 0.125 // the approximate output
		if r.Fixed {
			fixed++
			want = float64(i) * 2 // the exact kernel output
		}
		if r.Output[0] != want {
			t.Fatalf("element %d output %v, want %v (fixed=%v)", i, r.Output[0], want, r.Fixed)
		}
	}
	if fixed != fires {
		t.Fatalf("fixed %d elements, want %d", fixed, fires)
	}
}

func TestProcessSliceEmptyInput(t *testing.T) {
	st := newCollectStream(t, 1)
	results, err := st.ProcessSlice(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty input produced %d results", len(results))
	}
}

// TestProcessSliceContinuesStream: a second ProcessSlice continues the
// stream where the first left it. Its indices run on, its fires join the
// invocation the first call began, and it starts no goroutine.
func TestProcessSliceContinuesStream(t *testing.T) {
	base := runtime.NumGoroutine()
	st := newCollectStream(t, 1)
	if _, err := st.ProcessSlice(context.Background(), [][]float64{{1, behaveNormal, 0.75}}); err != nil {
		t.Fatal(err)
	}
	got, err := st.ProcessSlice(context.Background(), [][]float64{{2, behaveNormal, 0}, {3, behaveNormal, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 2 || got[0].Fixed || !got[1].Fixed {
		t.Fatalf("second call returned %+v, want indices 1 and 2 with the second fixed", got)
	}
	if c := st.Carry(); c != (Carry{Elements: 3, Fired: 2}) {
		t.Fatalf("carry after two calls = %+v, want 3 elements, 2 fired", c)
	}
	waitForGoroutines(t, base)
}

func TestProcessSliceCancellationReturnsPartialPrefix(t *testing.T) {
	base := runtime.NumGoroutine()
	st := newCollectStream(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	// A slow always-firing workload with one worker: cancelling mid-stream
	// must return the delivered in-order prefix plus ctx.Err(), and tear the
	// pipeline down (checked by the goroutine settle loop).
	inputs := make([][]float64, 500)
	for i := range inputs {
		inputs[i] = []float64{float64(i), behaveNormal, 0.9}
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	results, err := st.ProcessSlice(ctx, inputs)
	if len(results) == len(inputs) && err != nil {
		t.Fatalf("full delivery must not report an error, got %v", err)
	}
	if len(results) < len(inputs) && !errors.Is(err, context.Canceled) {
		t.Fatalf("partial delivery (%d/%d) returned %v, want context.Canceled", len(results), len(inputs), err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("partial prefix out of order: result %d has index %d", i, r.Index)
		}
	}
	waitForGoroutines(t, base)
}
