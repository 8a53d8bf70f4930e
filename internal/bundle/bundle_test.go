package bundle

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/trainer"
)

func trainFFT(t *testing.T) (*bench.Spec, accel.Config, trainer.PredictorSet) {
	t.Helper()
	spec, err := bench.Get("fft")
	if err != nil {
		t.Fatal(err)
	}
	train := spec.GenTrain(400)
	cfg := trainer.DefaultAccelTrainConfig("fft")
	cfg.NN.Epochs = 10
	acfg, err := trainer.TrainAccelerator(spec, spec.RumbaTopo, spec.RumbaFeatures, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := accel.New(acfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := trainer.TrainPredictors(spec, train, trainer.Observe(spec, acc, train))
	if err != nil {
		t.Fatal(err)
	}
	return spec, acfg, preds
}

func TestBundleRoundTrip(t *testing.T) {
	spec, acfg, preds := trainFFT(t)
	b, err := New(spec, acfg, preds)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fft.json")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	back, backSpec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if backSpec.Name != "fft" {
		t.Fatalf("benchmark = %s", backSpec.Name)
	}

	// The reloaded accelerator must reproduce the original bit-for-bit.
	accOrig, _ := accel.New(acfg, 0)
	accBack, err := back.Accelerator()
	if err != nil {
		t.Fatal(err)
	}
	test := spec.GenTest(50)
	for _, in := range test.Inputs {
		a, bOut := accOrig.Invoke(in), accBack.Invoke(in)
		for j := range a {
			if a[j] != bOut[j] {
				t.Fatalf("reloaded accelerator differs: %v vs %v", a, bOut)
			}
		}
	}

	// The reloaded checkers must predict identically.
	ps := back.Predictors()
	if ps.Linear == nil || ps.Tree == nil || ps.EMA == nil {
		t.Fatal("missing reloaded predictors")
	}
	for _, in := range test.Inputs[:20] {
		out := accOrig.Invoke(in)
		if got, want := ps.Linear.PredictError(in, out), preds.Linear.PredictError(in, out); math.Abs(got-want) > 1e-15 {
			t.Fatalf("linear differs: %v vs %v", got, want)
		}
		if got, want := ps.Tree.PredictError(in, out), preds.Tree.PredictError(in, out); got != want {
			t.Fatalf("tree differs: %v vs %v", got, want)
		}
	}
	if ps.EMA.N != preds.EMA.N || ps.EMA.Scale != preds.EMA.Scale {
		t.Fatal("EMA parameters differ")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, accel.Config{}, trainer.PredictorSet{}); err == nil {
		t.Fatal("nil spec must fail")
	}
}

func TestValidateRejectsVersionAndBenchmark(t *testing.T) {
	spec, acfg, preds := trainFFT(t)
	b, _ := New(spec, acfg, preds)
	b.Version = 99
	if _, err := b.Validate(); err == nil {
		t.Fatal("wrong version must fail")
	}
	b.Version = FormatVersion
	b.Benchmark = "nope"
	if _, err := b.Validate(); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
	b.Benchmark = "sobel" // fft topology cannot serve sobel (1 output vs 1... both 1?)
	// fft has 2 outputs, sobel wants 1: dimension check fires.
	if _, err := b.Validate(); err == nil {
		t.Fatal("output-dimension mismatch must fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load("/no/such/file.json"); err == nil {
		t.Fatal("missing file must fail")
	}
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := Save(path, &Bundle{Version: FormatVersion, Benchmark: "fft"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Fatal("bundle without accelerator must fail validation")
	}
}

// TestLoadRejectsCorruptedAndTruncatedFiles covers the file-level error
// paths: syntactically broken JSON and a valid artifact cut off mid-stream.
func TestLoadRejectsCorruptedAndTruncatedFiles(t *testing.T) {
	spec, acfg, preds := trainFFT(t)
	b, err := New(spec, acfg, preds)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := Save(good, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, append([]byte("{not json"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(corrupt); err == nil {
		t.Fatal("corrupted JSON must fail")
	}

	trunc := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(trunc); err == nil {
		t.Fatal("truncated file must fail")
	}
}

// TestNilPredictorRoundTrip: a bundle carrying only the accelerator (no
// checkers at all) must survive the disk round trip and reconstruct an empty
// predictor set without panicking — the unchecked-NPU artifact is legal.
func TestNilPredictorRoundTrip(t *testing.T) {
	spec, acfg, _ := trainFFT(t)
	b, err := New(spec, acfg, trainer.PredictorSet{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unchecked.json")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	back, backSpec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if backSpec.Name != spec.Name {
		t.Fatalf("benchmark = %s", backSpec.Name)
	}
	ps := back.Predictors()
	if ps.Linear != nil || ps.Tree != nil || ps.EMA != nil {
		t.Fatalf("predictor set should be empty, got %+v", ps)
	}
	acc, err := back.Accelerator()
	if err != nil {
		t.Fatal(err)
	}
	if out := acc.Invoke(spec.GenTest(5).Inputs[0]); len(out) != spec.OutDim {
		t.Fatalf("accelerator output width %d, want %d", len(out), spec.OutDim)
	}
}

// TestValidateRejectsShapeCorruption: every index the runtime will later
// trust must be bounds-checked at Validate, not discovered as a panic on the
// first Invoke. Each case corrupts one shape aspect of an otherwise valid
// bundle.
func TestValidateRejectsShapeCorruption(t *testing.T) {
	spec, acfg, preds := trainFFT(t)
	cases := []struct {
		name    string
		corrupt func(b *Bundle)
	}{
		{"feature index out of kernel range", func(b *Bundle) {
			b.Accel.Features = make([]int, b.Accel.Net.Topo.Inputs())
			for i := range b.Accel.Features {
				b.Accel.Features[i] = spec.InDim + 7 // stageInput would panic on in[idx]
			}
		}},
		{"feature count vs net inputs", func(b *Bundle) {
			b.Accel.Features = make([]int, b.Accel.Net.Topo.Inputs()+1)
		}},
		{"scaler input range truncated", func(b *Bundle) {
			b.Accel.Scaler.InMin = nil // ScaleInTo would panic
		}},
		{"scaler output range truncated", func(b *Bundle) {
			b.Accel.Scaler.OutMax = nil // UnscaleOutTo would panic
		}},
		{"linear weight width mismatch", func(b *Bundle) {
			b.Linear.Weights = append(b.Linear.Weights, 0.5)
		}},
		{"tree child index out of range", func(b *Bundle) {
			for i := range b.Tree.Nodes {
				if b.Tree.Nodes[i].Feature >= 0 {
					b.Tree.Nodes[i].Left = int32(len(b.Tree.Nodes) + 5)
					return
				}
			}
			t.Fatal("trained tree has no decision node")
		}},
		{"negative EMA history", func(b *Bundle) {
			b.EMAHistory = -3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(spec, acfg, preds)
			if err != nil {
				t.Fatal(err)
			}
			// Deep-copy the pieces the case mutates so cases stay independent.
			data, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Bundle
			if err := json.Unmarshal(data, &fresh); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&fresh)
			if _, err := fresh.Validate(); err == nil {
				t.Fatalf("%s: Validate accepted a corrupt bundle", tc.name)
			}
		})
	}
}

// TestParseMatchesLoad checks that Parse over a file's bytes yields what
// Load yields from the file, and that Parse validates as Load does.
func TestParseMatchesLoad(t *testing.T) {
	spec, acfg, preds := trainFFT(t)
	b, err := New(spec, acfg, preds)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fft.json")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, parsedSpec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	loaded, loadedSpec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if parsedSpec != loadedSpec || !reflect.DeepEqual(parsed, loaded) {
		t.Fatal("Parse and Load disagree on the same bytes")
	}
	if _, _, err := Parse(data[:len(data)/2]); err == nil {
		t.Fatal("Parse accepted a truncated bundle")
	}
	b.Version++
	bad, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Parse(bad); err == nil {
		t.Fatal("Parse accepted a bundle that fails Validate")
	}
}
