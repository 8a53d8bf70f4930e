package core

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func feedInputs(inputs [][]float64) <-chan []float64 {
	ch := make(chan []float64)
	go func() {
		defer close(ch)
		for _, in := range inputs {
			ch <- in
		}
	}()
	return ch
}

// mustProcess starts the stream with a background context, failing the test
// on a startup error.
func mustProcess(t *testing.T, st *Stream, inputs <-chan []float64) <-chan StreamResult {
	t.Helper()
	out, err := st.Process(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reconcileStats asserts the stream's obs counters agree exactly with the
// evaluated stream statistics: elements in == out == Elements, fixes ==
// Fixed, degradations == Degraded, and every fire was resolved one way or
// the other.
func reconcileStats(t *testing.T, st *Stream, stats StreamStats) {
	t.Helper()
	snap := st.Metrics().Snapshot()
	if n := snap.Counters[MetricElementsIn]; n != int64(stats.Elements) {
		t.Fatalf("%s = %d, want %d", MetricElementsIn, n, stats.Elements)
	}
	if n := snap.Counters[MetricElementsOut]; n != int64(stats.Elements) {
		t.Fatalf("%s = %d, want %d", MetricElementsOut, n, stats.Elements)
	}
	if n := snap.Counters[MetricFixes]; n != int64(stats.Fixed) {
		t.Fatalf("%s = %d, want %d", MetricFixes, n, stats.Fixed)
	}
	if n := snap.Counters[MetricDegraded]; n != int64(stats.Degraded) {
		t.Fatalf("%s = %d, want %d", MetricDegraded, n, stats.Degraded)
	}
	if fires := snap.Counters[MetricFires]; fires != int64(stats.Fixed+stats.Degraded) {
		t.Fatalf("%s = %d, want fixes+degraded = %d", MetricFires, fires, stats.Fixed+stats.Degraded)
	}
}

func TestStreamDeliversEverythingInOrder(t *testing.T) {
	spec, acc, ps, test := buildRuntime(t, "fft", 500)
	tuner, _ := NewTuner(ModeTOQ, 0.10)
	st, err := NewStream(Config{Spec: spec, Accel: acc, Checker: ps.Tree, Tuner: tuner}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := EvaluateStream(mustProcess(t, st, feedInputs(test.Inputs)), test.Targets, spec.Metric, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elements != test.Len() {
		t.Fatalf("delivered %d of %d elements", stats.Elements, test.Len())
	}
	reconcileStats(t, st, stats)
}

func TestStreamFixedElementsAreExact(t *testing.T) {
	spec, acc, ps, test := buildRuntime(t, "inversek2j", 600)
	tuner, _ := NewTuner(ModeTOQ, 0.10)
	st, err := NewStream(Config{Spec: spec, Accel: acc, Checker: ps.Tree, Tuner: tuner}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fixed := 0
	for r := range mustProcess(t, st, feedInputs(test.Inputs)) {
		if r.Fixed {
			fixed++
			exact := spec.Exact(test.Inputs[r.Index])
			for j := range exact {
				if math.Abs(exact[j]-r.Output[j]) > 1e-12 {
					t.Fatalf("fixed element %d not exact: %v vs %v", r.Index, r.Output, exact)
				}
			}
		}
	}
	if fixed == 0 {
		t.Fatal("expected the checker to fire at least once")
	}
}

func TestStreamUncheckedNeverFixes(t *testing.T) {
	spec, acc, _, test := buildRuntime(t, "fft", 300)
	st, err := NewStream(Config{Spec: spec, Accel: acc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := range mustProcess(t, st, feedInputs(test.Inputs)) {
		if r.Fixed || r.PredictedError != 0 {
			t.Fatal("unchecked stream must not fix or predict")
		}
	}
}

func TestStreamMatchesBatchQuality(t *testing.T) {
	// Streaming and batch runs use the same detection rule, so the set of
	// fixed elements — and therefore the output error — must agree when
	// the tuner threshold is pinned (TOQ mode).
	spec, acc, ps, test := buildRuntime(t, "inversek2j", 800)
	tuner1, _ := NewTuner(ModeTOQ, 0.10)
	sys, err := NewSystem(Config{Spec: spec, Accel: acc, Checker: ps.Linear, Tuner: tuner1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sys.Run(test)
	if err != nil {
		t.Fatal(err)
	}
	tuner2, _ := NewTuner(ModeTOQ, 0.10)
	st, err := NewStream(Config{Spec: spec, Accel: acc, Checker: ps.Linear, Tuner: tuner2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := EvaluateStream(mustProcess(t, st, feedInputs(test.Inputs)), test.Targets, spec.Metric, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fixed != batch.Fixed {
		t.Fatalf("stream fixed %d, batch fixed %d", stats.Fixed, batch.Fixed)
	}
	if math.Abs(stats.OutputError-batch.OutputError) > 1e-9 {
		t.Fatalf("stream error %v, batch error %v", stats.OutputError, batch.OutputError)
	}
	reconcileStats(t, st, stats)
}

func TestStreamBackPressureSmallQueue(t *testing.T) {
	// A 1-slot recovery queue with an always-firing checker: the pipeline
	// must still deliver every element exactly once, in order.
	spec, acc, _, test := buildRuntime(t, "fft", 200)
	tuner, _ := NewTuner(ModeTOQ, 0)
	st, err := NewStream(Config{
		Spec: spec, Accel: acc, Checker: &constantChecker{value: 1},
		Tuner: tuner, RecoveryQueueCap: 1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := EvaluateStream(mustProcess(t, st, feedInputs(test.Inputs)), test.Targets, spec.Metric, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elements != test.Len() || stats.Fixed != test.Len() {
		t.Fatalf("delivered %d, fixed %d, want both %d", stats.Elements, stats.Fixed, test.Len())
	}
	if stats.OutputError != 0 {
		t.Fatalf("all-fixed stream must be exact, error %v", stats.OutputError)
	}
	reconcileStats(t, st, stats)
}

func TestStreamEnergyModeTunesOnline(t *testing.T) {
	spec, acc, ps, test := buildRuntime(t, "inversek2j", 2000)
	budget := 0.15
	tuner, _ := NewTuner(ModeEnergy, budget)
	st, err := NewStream(Config{
		Spec: spec, Accel: acc, Checker: ps.Tree, Tuner: tuner, InvocationSize: 200,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := EvaluateStream(mustProcess(t, st, feedInputs(test.Inputs)), test.Targets, spec.Metric, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(stats.Fixed) / float64(stats.Elements); frac > 2*budget {
		t.Fatalf("energy mode fixed %.1f%% against a %.0f%% budget", 100*frac, 100*budget)
	}
	reconcileStats(t, st, stats)
}

// TestStreamProcessTwiceContinues: a second Process call, made once the
// first call's channel has closed, continues the stream, EMA checker history
// and Energy tuner included, so two calls deliver what refStream delivers
// for the whole sequence.
func TestStreamProcessTwiceContinues(t *testing.T) {
	spec, acc, ps, test := buildRuntime(t, "fft", 100)
	cfg := Config{Spec: spec, Accel: acc, Checker: ps.EMA, InvocationSize: 16}
	var err error
	if cfg.Tuner, err = NewTuner(ModeEnergy, 0.25); err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := test.Len()/2 + 3 // not a multiple of the invocation size
	var got []StreamResult
	for _, part := range [][][]float64{test.Inputs[:half], test.Inputs[half:]} {
		for r := range mustProcess(t, st, feedInputs(part)) {
			got = append(got, r)
		}
	}
	ref := cfg
	if ref.Tuner, err = NewTuner(ModeEnergy, 0.25); err != nil {
		t.Fatal(err)
	}
	want, _ := refStream(ref, test.Inputs)
	sameResults(t, "two Process calls", got, want)
	gotTuner, _ := cfg.Tuner.MarshalJSON()
	if wantTuner, _ := ref.Tuner.MarshalJSON(); !bytes.Equal(gotTuner, wantTuner) {
		t.Fatalf("tuner after two Process calls %s, want %s", gotTuner, wantTuner)
	}
}

func TestConfigValidatesHardeningKnobs(t *testing.T) {
	spec, acc, _, _ := buildRuntime(t, "fft", 100)
	if _, err := NewSystem(Config{Spec: spec, Accel: acc, RecoveryDeadline: -1}); err == nil {
		t.Fatal("negative recovery deadline must fail validation")
	}
	sys, err := NewSystem(Config{Spec: spec, Accel: acc, RecoveryQueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics() == nil {
		t.Fatal("a private metrics registry must be allocated")
	}
}

func TestEvaluateStreamRejectsShortTargets(t *testing.T) {
	results := make(chan StreamResult, 1)
	results <- StreamResult{Index: 0, Output: []float64{1}}
	close(results)
	if _, err := EvaluateStream(results, nil, 0, 0); err == nil {
		t.Fatal("expected index-beyond-targets error")
	}
}
