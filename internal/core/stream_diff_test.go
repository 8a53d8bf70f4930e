package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"rumba/internal/bench"
	"rumba/internal/energy"
	"rumba/internal/obs"
	"rumba/internal/predictor"
	"rumba/internal/quality"
	"rumba/internal/rng"
)

// refStream is the paper's online loop one element at a time (Figures 4 and
// 8): invoke the accelerator, predict its error, fire when the prediction
// exceeds the current threshold, re-execute a fired element exactly and
// score the approximation against it, and let the tuner observe every full
// invocation. It returns the results and the stream counters the loop
// implies.
func refStream(cfg Config, inputs [][]float64) ([]StreamResult, map[string]int64) {
	spec, model := cfg.Spec, energy.DefaultModel()
	if cfg.Checker != nil {
		cfg.Checker.Reset()
	}
	counters := map[string]int64{MetricElementsIn: int64(len(inputs)), MetricElementsOut: int64(len(inputs))}
	res := make([]StreamResult, len(inputs))
	fired := 0
	for i, in := range inputs {
		approx := cfg.Accel.Invoke(in)
		r := StreamResult{Index: i, Output: approx}
		if cfg.Checker != nil {
			r.PredictedError = cfg.Checker.PredictError(in, approx)
			if r.PredictedError > cfg.Tuner.Threshold {
				exact := spec.Exact(in)
				r.Output, r.Fixed, r.Observed = exact, true, true
				r.ObservedError = quality.ElementError(spec.Metric, exact, approx, spec.Scale)
				fired++
				counters[MetricFires]++
				counters[MetricFixes]++
			}
		}
		res[i] = r
		if (i+1)%cfg.InvocationSize == 0 {
			// The recovery CPU's utilisation: re-execution cycles over
			// accelerator cycles, clamped to 1.
			u := 1.0
			if accelCycles := cfg.Accel.CyclesPerInvocation() * float64(cfg.InvocationSize); accelCycles > 0 {
				u = energy.KernelCPULatency(spec.Cost, model) * float64(fired) / accelCycles
				if u > 1 {
					u = 1
				}
			}
			cfg.Tuner.Observe(InvocationStats{Elements: cfg.InvocationSize, Fixed: fired, CPUUtilisation: u})
			counters[MetricInvocations]++
			fired = 0
		}
	}
	return res, counters
}

// sameResults requires got to equal want field by field, floats bit for bit.
func sameResults(t *testing.T, what string, got, want []StreamResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		same := g.Index == w.Index && g.Fixed == w.Fixed && g.Degraded == w.Degraded && g.Observed == w.Observed &&
			bits(g.PredictedError) == bits(w.PredictedError) && bits(g.ObservedError) == bits(w.ObservedError) &&
			len(g.Output) == len(w.Output)
		for j := 0; same && j < len(w.Output); j++ {
			same = bits(g.Output[j]) == bits(w.Output[j])
		}
		if !same {
			t.Fatalf("%s: element %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// splitSizes cuts n elements into the call sizes of the split axis: a
// 1-element call first, then random calls of up to one and a half
// invocations (a quarter of them 1-element) and, third, one call spanning
// at least two invocation boundaries.
func splitSizes(r *rng.Stream, n, inv int) []int {
	var sizes []int
	for left := n; left > 0; {
		k := 1 + r.Intn(inv+inv/2)
		switch {
		case len(sizes) == 0 || r.Intn(4) == 0:
			k = 1
		case len(sizes) == 2:
			k = 2*inv + 3
		}
		k = min(k, left)
		sizes = append(sizes, k)
		left -= k
	}
	return sizes
}

// runCalls feeds inputs to one Stream through entry ("ProcessSlice" or
// "Process"), one call per entry of sizes. Before call handoff (none when
// negative) the stream's Carry moves onto a fresh Stream over the same
// config, as a serving layer's snapshot and restore does; the fresh
// stream's indices are rebased so the results read as one stream.
func runCalls(t *testing.T, what string, cfg Config, workers int, entry string, inputs [][]float64,
	sizes []int, handoff int) []StreamResult {
	t.Helper()
	var st *Stream
	var got []StreamResult
	base, lo := 0, 0
	for c, n := range sizes {
		if c == 0 || c == handoff {
			var carry Carry
			if st != nil {
				carry = st.Carry()
			}
			var err error
			if st, err = NewStream(cfg, workers); err != nil {
				t.Fatal(err)
			}
			st.SetCarry(carry)
			base = lo
		}
		part := inputs[lo : lo+n]
		var res []StreamResult
		var err error
		if entry == "ProcessSlice" {
			res, err = st.ProcessSlice(context.Background(), part)
		} else {
			var out <-chan StreamResult
			out, err = st.Process(context.Background(), feedInputs(part))
			for r := range out {
				res = append(res, r)
			}
		}
		if err != nil {
			t.Fatalf("%s: call %d: %v", what, c, err)
		}
		for _, r := range res {
			r.Index += base
			got = append(got, r)
		}
		lo += n
	}
	return got
}

// TestStreamMatchesSequentialReference holds ProcessSlice and Process to
// refStream across every kernel, checker family, tuner mode, invocation
// size, chunk width, worker count and split of the sequence into calls: the
// results, the tuner state after the run and the stream counters must agree
// exactly. 700 elements leave a partial last invocation and a ragged last
// chunk, and every kernel must see a run that fires on part of its
// elements. The split runs one reused Stream over random calls (see
// splitSizes) and, for the stateless checkers, hand its Carry to a fresh
// Stream halfway; an EMA checker's history does not travel with a Carry.
func TestStreamMatchesSequentialReference(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			spec, acc, ps, _ := buildRuntime(t, name, 300)
			inputs := spec.GenTest(700).Inputs
			checkers := map[string]predictor.Predictor{"none": nil, "linear": ps.Linear, "tree": ps.Tree, "ema": ps.EMA}
			mixed := false
			for ck, checker := range checkers {
				if ck != "none" && checker == nil {
					t.Fatalf("%s trained no %s checker", name, ck)
				}
				for _, m := range diffModes {
					for _, inv := range []int{64, 512} {
						refTuner, err := NewTuner(m.mode, m.target)
						if err != nil {
							t.Fatal(err)
						}
						base := Config{Spec: spec, Accel: acc, Checker: checker, Tuner: refTuner, InvocationSize: inv}
						want, wantCounters := refStream(base, inputs)
						wantTuner, _ := refTuner.MarshalJSON()
						fires := wantCounters[MetricFires]
						mixed = mixed || (fires > 0 && fires < int64(len(inputs)))
						for _, batch := range []int{1, 8, 64, 256} {
							for _, workers := range []int{1, 4} {
								for _, split := range []bool{false, true} {
									for _, entry := range []string{"ProcessSlice", "Process"} {
										what := fmt.Sprintf("%s checker %s mode %v invocation %d batch %d workers %d split %v",
											entry, ck, m.mode, inv, batch, workers, split)
										cfg := base
										cfg.BatchSize = batch
										cfg.Metrics = obs.NewRegistry()
										if cfg.Tuner, err = NewTuner(m.mode, m.target); err != nil {
											t.Fatal(err)
										}
										sizes, handoff := []int{len(inputs)}, -1
										if split {
											sizes = splitSizes(rng.NewNamed(what), len(inputs), inv)
											if ck != "ema" {
												handoff = len(sizes) / 2
											}
										}
										got := runCalls(t, what, cfg, workers, entry, inputs, sizes, handoff)
										sameResults(t, what, got, want)
										if gotTuner, _ := cfg.Tuner.MarshalJSON(); !bytes.Equal(gotTuner, wantTuner) {
											t.Fatalf("%s: tuner %s, want %s", what, gotTuner, wantTuner)
										}
										counters := cfg.Metrics.Snapshot().Counters
										for _, c := range []string{MetricElementsIn, MetricElementsOut, MetricFires, MetricFixes, MetricDegraded, MetricInvocations} {
											if counters[c] != wantCounters[c] {
												t.Fatalf("%s: %s = %d, want %d", what, c, counters[c], wantCounters[c])
											}
										}
									}
								}
							}
						}
					}
				}
			}
			if !mixed {
				t.Errorf("%s: no run fired on only part of the elements", name)
			}
		})
	}
}
