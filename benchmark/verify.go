package main

import (
	"encoding/json"
	"fmt"
	"math"

	"rumba/internal/accel"
	"rumba/internal/quality"
	"rumba/internal/server"
)

// verifier checks sampled responses against the kernels' exact and
// accelerator outputs.
type verifier struct {
	kernels []*kernel
	accels  []*accel.Accelerator
	// errSum and elems accumulate the delivered error of every checked
	// element.
	errSum float64
	elems  int
}

func newVerifier(kernels []*kernel) (*verifier, error) {
	v := &verifier{kernels: kernels}
	for _, k := range kernels {
		a, err := k.newAccel()
		if err != nil {
			return nil, err
		}
		v.accels = append(v.accels, a)
	}
	return v, nil
}

// check verifies one response to the request with the given inputs, served
// by kernel k. Every output must be bit-identical to the exact kernel or to
// the package accelerator, the elements matching only the exact output must
// be exactly the ones the response reports fixed (ties, where both outputs
// coincide, may count either way), and the element count must match.
func (v *verifier) check(k int, inputs [][]float64, raw []byte) error {
	var resp server.InvokeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if resp.Elements != len(inputs) || len(resp.Outputs) != len(inputs) {
		return fmt.Errorf("response has %d elements and %d outputs for %d inputs", resp.Elements, len(resp.Outputs), len(inputs))
	}
	spec, acc := v.kernels[k].spec, v.accels[k]
	exactOnly, ties := 0, 0
	var errSum float64
	for i, in := range inputs {
		out, exact, approx := resp.Outputs[i], spec.Exact(in), acc.Invoke(in)
		isExact, isApprox := sameBits(out, exact), sameBits(out, approx)
		switch {
		case isExact && isApprox:
			ties++
		case isExact:
			exactOnly++
		case !isApprox:
			return fmt.Errorf("element %d: output %v is neither the exact %v nor the accelerator's %v", i, out, exact, approx)
		}
		errSum += quality.ElementError(spec.Metric, exact, out, spec.Scale)
	}
	if resp.Fixed < exactOnly || resp.Fixed > exactOnly+ties {
		return fmt.Errorf("response reports %d fixed, but %d elements are exact-only and %d ties", resp.Fixed, exactOnly, ties)
	}
	v.errSum += errSum
	v.elems += len(inputs)
	return nil
}

// outputError is the mean delivered element error over every checked
// element.
func (v *verifier) outputError() float64 {
	if v.elems == 0 {
		return 0
	}
	return v.errSum / float64(v.elems)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
