package core

import (
	"fmt"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/nn"
	"rumba/internal/quality"
)

// This file keeps a test-only copy of the scalar System.Run loop that the
// batched runner replaced: one element at a time through Invoke and
// PredictError, a queue rescan per element to decide whether it was
// flagged, and an exact re-execution per fired element whose result is
// discarded. The differential tests in system_diff_test.go hold the batched
// runner to it bit for bit.

// recoveryBitRef is the message the reference carries on its recovery
// queue: the iteration whose output the detector flagged for exact
// re-execution.
type recoveryBitRef struct {
	Iteration      int
	PredictedError float64
}

// runScalarRef is the reference scalar runner.
func runScalarRef(s *System, d nn.Dataset) (*Report, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	spec := s.cfg.Spec
	rep := &Report{
		Elements: d.Len(),
		Outcomes: make([]ElementOutcome, d.Len()),
	}
	if s.cfg.Checker != nil {
		s.cfg.Checker.Reset()
	}
	recovery := accel.NewQueue[recoveryBitRef](s.cfg.RecoveryQueueCap)
	mIn, mOut := s.obs.Counter(MetricElementsIn), s.obs.Counter(MetricElementsOut)
	mFires, mFixes := s.obs.Counter(MetricFires), s.obs.Counter(MetricFixes)
	gThreshold := s.obs.Gauge(MetricThreshold)
	flags := make([]bool, d.Len())

	var uncheckedSum, mergedSum float64
	for start := 0; start < d.Len(); start += s.cfg.InvocationSize {
		end := start + s.cfg.InvocationSize
		if end > d.Len() {
			end = d.Len()
		}
		fixedThisInv := 0
		threshold := 0.0
		if s.cfg.Tuner != nil {
			threshold = s.cfg.Tuner.Threshold
			rep.ThresholdTrace = append(rep.ThresholdTrace, threshold)
			gThreshold.Set(threshold)
		}
		s.obs.Counter(MetricInvocations).Inc()
		for i := start; i < end; i++ {
			mIn.Inc()
			approx := s.cfg.Accel.Invoke(d.Inputs[i])
			trueErr := quality.ElementError(spec.Metric, d.Targets[i], approx, spec.Scale)
			out := &rep.Outcomes[i]
			out.TrueError = trueErr
			uncheckedSum += trueErr

			if s.cfg.Checker != nil {
				out.PredictedError = s.cfg.Checker.PredictError(d.Inputs[i], approx)
				if out.PredictedError > threshold {
					// The detector fires: push the recovery bit. The CPU
					// side drains the queue continuously (pipelined with
					// the accelerator), so a full queue only means
					// back-pressure in the timing model, never a lost fix.
					if !recovery.Push(recoveryBitRef{Iteration: i, PredictedError: out.PredictedError}) {
						drainRecoveryRef(recovery, spec, d, rep, &mergedSum, flags)
						recovery.Push(recoveryBitRef{Iteration: i, PredictedError: out.PredictedError})
					}
					fixedThisInv++
					mFires.Inc()
				}
			}
			if !flaggedRef(recovery, i) {
				// Output merger: no recovery bit pending for this element
				// yet; count the approximate output. (Flagged elements are
				// committed exactly when the queue drains.)
				mergedSum += trueErr
			}
			mOut.Inc()
		}
		drainRecoveryRef(recovery, spec, d, rep, &mergedSum, flags)
		if s.cfg.Tuner != nil {
			s.cfg.Tuner.Observe(InvocationStats{
				Elements:       end - start,
				Fixed:          fixedThisInv,
				CPUUtilisation: EstimateUtilisation(s.cfg.Accel, spec.Cost, s.model, fixedThisInv, end-start),
			})
		}
	}
	rep.UncheckedError = uncheckedSum / float64(d.Len())
	rep.OutputError = mergedSum / float64(d.Len())
	for _, o := range rep.Outcomes {
		if o.Fixed {
			rep.Fixed++
		}
	}
	mFixes.Add(int64(rep.Fixed))
	if err := s.accountCosts(rep, flags); err != nil {
		return nil, err
	}
	return rep, nil
}

// flaggedRef reports whether element i currently sits in the recovery queue.
// The queue is small (paper-default 64), so a linear scan is fine.
func flaggedRef(q *accel.Queue[recoveryBitRef], i int) bool {
	found := false
	n := q.Len()
	for k := 0; k < n; k++ {
		v, _ := q.Pop()
		if v.Iteration == i {
			found = true
		}
		q.Push(v)
	}
	return found
}

// drainRecoveryRef performs the recovery module's work: pop every pending
// recovery bit, re-execute that iteration exactly on the CPU, and commit the
// exact output through the merger (zero error contribution).
func drainRecoveryRef(q *accel.Queue[recoveryBitRef], spec *bench.Spec, d nn.Dataset, rep *Report, mergedSum *float64, flags []bool) {
	for {
		bit, ok := q.Pop()
		if !ok {
			return
		}
		// Pure kernels re-execute without side effects; the exact result
		// replaces the accelerator output, so the element's merged error
		// is exactly zero.
		exact := spec.Exact(d.Inputs[bit.Iteration])
		_ = exact
		rep.Outcomes[bit.Iteration].Fixed = true
		flags[bit.Iteration] = true
	}
}
