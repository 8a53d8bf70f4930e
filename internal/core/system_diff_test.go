package core

import (
	"fmt"
	"testing"

	"rumba/internal/bench"
	"rumba/internal/nn"
	"rumba/internal/predictor"
)

// diffModes are the tuner modes the differential test drives, each with a
// target its NewTuner accepts.
var diffModes = []struct {
	mode   TunerMode
	target float64
}{{ModeTOQ, 0.10}, {ModeEnergy, 0.25}, {ModeQuality, 0.5}}

// runFingerprint runs one fresh System (private registry, fresh tuner) with
// runner and renders everything the run produces: the whole Report and the
// registry snapshot. %v prints float64s in shortest round-trip form, so two
// fingerprints are equal only if every value is bit-identical.
func runFingerprint(t *testing.T, cfg Config, mode TunerMode, target float64, d nn.Dataset,
	runner func(*System, nn.Dataset) (*Report, error)) (string, *Report) {
	t.Helper()
	tu, err := NewTuner(mode, target)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tuner = tu
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner(sys, d)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v\n%v", *rep, sys.Metrics().Snapshot()), rep
}

// TestRunMatchesScalarReference holds the batched System.Run to the scalar
// loop it replaced, bit for bit: outcomes, fixed count, both errors, the
// threshold trace, energy, pipeline and speedup, and the registry metrics.
// 700 elements leave a partial last invocation at both invocation sizes and
// a partial last chunk at every batch size but 1, and every kernel must see
// some run that fires on part of its elements, so the sweep exercises the
// split between the recovery queue and the merger.
func TestRunMatchesScalarReference(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			spec, acc, ps, _ := buildRuntime(t, name, 300)
			test := spec.GenTest(700)
			checkers := map[string]predictor.Predictor{"none": nil}
			if ps.Linear != nil {
				checkers["linear"] = ps.Linear
			}
			if ps.Tree != nil {
				checkers["tree"] = ps.Tree
			}
			if ps.EMA != nil {
				checkers["ema"] = ps.EMA
			}
			if len(checkers) != 4 {
				t.Fatalf("%s trained %d of the 4 checker families", name, len(checkers))
			}
			mixed := false
			for ck, checker := range checkers {
				for _, m := range diffModes {
					for _, inv := range []int{64, 512} {
						base := Config{Spec: spec, Accel: acc, Checker: checker, InvocationSize: inv}
						want, rep := runFingerprint(t, base, m.mode, m.target, test, runScalarRef)
						mixed = mixed || (rep.Fixed > 0 && rep.Fixed < rep.Elements)
						for _, batch := range []int{1, 7, 64, 512} {
							cfg := base
							cfg.BatchSize = batch
							got, _ := runFingerprint(t, cfg, m.mode, m.target, test, (*System).Run)
							if got != want {
								t.Fatalf("checker %s mode %v invocation %d batch %d: batched Run differs from the scalar reference",
									ck, m.mode, inv, batch)
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

// TestRunAllocsPerElement bounds the batched runner's allocations: per-run
// buffers only, nothing per element or per chunk. The scalar loop made 2.0
// per element on fft (the accelerator's output row and the discarded exact
// result).
func TestRunAllocsPerElement(t *testing.T) {
	spec, acc, ps, _ := buildRuntime(t, "fft", 300)
	test := spec.GenTest(4096)
	tu, err := NewTuner(ModeTOQ, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Spec: spec, Accel: acc, Checker: ps.Tree, Tuner: tu, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sys.Run(test); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(test.Len()); per >= 0.1 {
		t.Fatalf("Run made %.3f allocations per element (%v per run), want < 0.1", per, allocs)
	}
}
