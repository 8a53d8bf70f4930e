// Package predictor implements Rumba's light-weight approximation-error
// checkers (Section 3.2): the input-based linear model (Equation 1) and
// decision tree (Figure 6), and the output-based exponential moving average
// (Equation 2), plus the EVP-versus-EEP comparison of Section 3.2 (Figure 5).
//
// A predictor estimates the error of one output element from information a
// dynamic checker can actually see — the accelerator's inputs and/or its
// approximate output — never the exact result.
package predictor

import (
	"fmt"
	"math"

	"rumba/internal/tensor"
)

// Cost models the hardware cost of evaluating one check, consumed by the
// energy/latency models: multiply-accumulates (linear model, Figure 7a) and
// compare operations (decision tree, Figure 7b; EMA comparison).
type Cost struct {
	MACs     float64
	Compares float64
}

// MaxPrediction caps predicted errors at a large finite value. Checker
// thresholds top out at 10 (the tuner's ceiling), so any capped prediction
// still reads as "fire"; what the cap buys is that an overflowing model can
// never leak ±Inf into the tuner statistics or the report. NaN predictions
// instead collapse to 0 — NaN compares false against every threshold, so 0
// ("no fire") is the behaviour the detection loop already exhibits; making
// it explicit keeps downstream arithmetic finite too.
const MaxPrediction = 1e6

// clampPrediction maps a raw model output into [0, MaxPrediction].
func clampPrediction(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > MaxPrediction {
		return MaxPrediction
	}
	return v
}

// Predictor is a light-weight error checker. Implementations must be cheap:
// the paper's premise is that the check runs for *every* output element.
type Predictor interface {
	// Name is the scheme label used in the figures ("linearErrors", ...).
	Name() string
	// PredictError estimates the element's approximation error from the
	// kernel input and the accelerator's approximate output.
	PredictError(in, approxOut []float64) float64
	// PredictErrorBatch fills dst[i] with the prediction for
	// (ins[i], outs[i]). It must produce exactly the values PredictError
	// would produce called element by element in index order (stateful
	// checkers update their state in that order), must not allocate at
	// steady state on the fused implementations, and must not retain dst,
	// ins or outs. The three slices are the same length. ScalarBatch is
	// the reference implementation for checkers without a fused kernel.
	PredictErrorBatch(dst []float64, ins, outs [][]float64)
	// Cost returns the per-check hardware cost.
	Cost() Cost
	// Reset clears any cross-element state (only the EMA checker has
	// state); called once per System.Run and once per core.Stream, whose
	// calls then continue the checker's history.
	Reset()
}

// ScalarBatch implements PredictErrorBatch by per-element PredictError
// calls: the reference implementation fused kernels are tested against, and
// the implementation checkers without a batch-specific win delegate to.
func ScalarBatch(p interface {
	PredictError(in, approxOut []float64) float64
}, dst []float64, ins, outs [][]float64) {
	for i := range dst {
		dst[i] = p.PredictError(ins[i], outs[i])
	}
}

// Linear is the linear error predictor of Equation 1:
//
//	err = w0*x0 + w1*x1 + ... + w{N-1}*x{N-1} + c
//
// The weights and constant are determined by offline training (least
// squares on the observed training-set errors).
type Linear struct {
	Weights  []float64
	Constant float64
	Features []int // kernel-input projection; nil = all inputs
}

var _ Predictor = (*Linear)(nil)

// Name implements Predictor.
func (l *Linear) Name() string { return "linearErrors" }

// PredictError implements Predictor. The result is clamped into
// [0, MaxPrediction] (an error magnitude cannot be negative, and a checker
// must stay finite on any input). Inputs shorter than the weight vector
// contribute zero for the missing terms rather than crashing the online
// detection loop.
func (l *Linear) PredictError(in, _ []float64) float64 {
	x := project(in, l.Features)
	s := l.Constant
	n := len(l.Weights)
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		s += l.Weights[i] * x[i]
	}
	return clampPrediction(s)
}

// PredictErrorBatch implements Predictor as a fused dot-product sweep: the
// feature projection is folded into the accumulation loop, so the batch
// path performs zero allocations while producing exactly PredictError's
// values (including the contribute-zero semantics for missing or
// out-of-range features — the w*0 products are kept so non-finite weights
// poison the sum identically).
//
//rumba:hotpath
func (l *Linear) PredictErrorBatch(dst []float64, ins, _ [][]float64) {
	w := l.Weights
	if l.Features == nil {
		for i, in := range ins {
			s := l.Constant
			n := len(w)
			if len(in) < n {
				n = len(in)
			}
			for j := 0; j < n; j++ {
				s += w[j] * in[j]
			}
			dst[i] = clampPrediction(s)
		}
		return
	}
	feats := l.Features
	n := len(w)
	if len(feats) < n {
		n = len(feats)
	}
	for i, in := range ins {
		s := l.Constant
		for j := 0; j < n; j++ {
			v := 0.0
			if idx := feats[j]; idx >= 0 && idx < len(in) {
				v = in[idx]
			}
			s += w[j] * v
		}
		dst[i] = clampPrediction(s)
	}
}

// Cost implements Predictor: one MAC per input plus the threshold compare.
func (l *Linear) Cost() Cost {
	return Cost{MACs: float64(len(l.Weights)), Compares: 1}
}

// Reset implements Predictor (the linear model is stateless).
func (l *Linear) Reset() {}

// FitLinear trains a Linear predictor by ridge-regularised least squares on
// (input, observed element error) pairs from the offline training run.
// features selects the kernel-input subset to use (nil = all).
func FitLinear(inputs [][]float64, errs []float64, features []int) (*Linear, error) {
	if len(inputs) == 0 || len(inputs) != len(errs) {
		return nil, fmt.Errorf("predictor: FitLinear needs matching non-empty inputs/errors")
	}
	d := len(project(inputs[0], features))
	x := tensor.NewMatrix(len(inputs), d+1)
	for i, in := range inputs {
		row := x.Row(i)
		row[0] = 1
		copy(row[1:], project(in, features))
	}
	w, err := tensor.LeastSquares(x, errs, 1e-8)
	if err != nil {
		return nil, fmt.Errorf("predictor: linear fit failed: %w", err)
	}
	return &Linear{Weights: w[1:], Constant: w[0], Features: features}, nil
}

// EMA is the output-based checker of Section 3.2.3: it tracks an exponential
// moving average of the accelerator outputs and flags elements that deviate
// from the running trend,
//
//	EMA = e*alpha + previousEMA*(1-alpha),  alpha = 2/(1+N).
type EMA struct {
	// N is the history length; alpha = 2/(1+N).
	N int
	// Scale normalises the deviation into the element-error range; it is
	// fitted offline as the output magnitude scale.
	Scale float64

	ema    float64
	primed bool
}

var _ Predictor = (*EMA)(nil)

// NewEMA builds an EMA checker with history length n (paper Equation 2) and
// the given output scale.
func NewEMA(n int, scale float64) *EMA {
	if n <= 0 {
		panic("predictor: EMA history length must be positive")
	}
	if scale <= 0 {
		scale = 1
	}
	return &EMA{N: n, Scale: scale}
}

// Name implements Predictor.
func (e *EMA) Name() string { return "EMA" }

// summarise collapses a (possibly multi-dimensional) output element into the
// scalar the moving average tracks.
func summarise(out []float64) float64 {
	if len(out) == 1 {
		return out[0]
	}
	return tensor.Mean(out)
}

// PredictError implements Predictor: the estimate is the normalised distance
// between the current output and the moving average, and the average is then
// updated with the current element. A non-finite output is maximally
// suspicious: it predicts MaxPrediction and is kept out of the average so
// one poisoned element cannot blind the checker to every later one.
func (e *EMA) PredictError(_, approxOut []float64) float64 {
	cur := summarise(approxOut)
	if math.IsNaN(cur) || math.IsInf(cur, 0) {
		return MaxPrediction
	}
	if !e.primed {
		e.ema = cur
		e.primed = true
		return 0
	}
	scale := e.Scale
	if !(scale > 0) {
		scale = 1
	}
	dev := math.Abs(cur-e.ema) / scale
	alpha := 2.0 / (1.0 + float64(e.N))
	e.ema = cur*alpha + e.ema*(1-alpha)
	return clampPrediction(dev)
}

// PredictErrorBatch implements Predictor: the moving-average recurrence is
// inherently sequential, so the batch form is the same update inlined over
// the batch — the win is amortising the call and the detection loop's
// channel hops, not reassociating the math. alpha and the scale guard are
// hoisted; every dst value is exactly what element-by-element PredictError
// calls would produce.
//
//rumba:hotpath
func (e *EMA) PredictErrorBatch(dst []float64, _, outs [][]float64) {
	alpha := 2.0 / (1.0 + float64(e.N))
	scale := e.Scale
	if !(scale > 0) {
		scale = 1
	}
	for i, out := range outs {
		cur := summarise(out)
		if math.IsNaN(cur) || math.IsInf(cur, 0) {
			dst[i] = MaxPrediction
			continue
		}
		if !e.primed {
			e.ema = cur
			e.primed = true
			dst[i] = 0
			continue
		}
		dev := math.Abs(cur-e.ema) / scale
		e.ema = cur*alpha + e.ema*(1-alpha)
		dst[i] = clampPrediction(dev)
	}
}

// Cost implements Predictor: one multiply-add for the average update and the
// deviation/threshold compares.
func (e *EMA) Cost() Cost { return Cost{MACs: 2, Compares: 2} }

// Reset implements Predictor.
func (e *EMA) Reset() { e.ema, e.primed = 0, false }

func project(in []float64, features []int) []float64 {
	if features == nil {
		return in
	}
	out := make([]float64, len(features))
	for i, idx := range features {
		// An out-of-range feature (model trained against a different input
		// shape) contributes zero rather than crashing the detection loop.
		if idx >= 0 && idx < len(in) {
			out[i] = in[idx]
		}
	}
	return out
}
