package core

import (
	"fmt"
	"time"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/energy"
	"rumba/internal/exec"
	"rumba/internal/nn"
	"rumba/internal/obs"
	"rumba/internal/pipeline"
	"rumba/internal/predictor"
	"rumba/internal/quality"
)

// Config assembles a Rumba execution subsystem (the online half of
// Figure 4).
type Config struct {
	Spec *bench.Spec
	// Accel is the approximate compute engine: the NPU accelerator model
	// (internal/accel) or a software approximator (internal/approx).
	Accel exec.Executor
	// Checker is the error predictor augmenting the accelerator; nil runs
	// the unchecked NPU (no detection, no recovery).
	Checker predictor.Predictor
	// Tuner controls the firing threshold; required when Checker is set.
	Tuner *Tuner
	// Placement positions an input-based checker per Figure 9. Output-
	// based checkers (EMA) always run after the accelerator.
	Placement accel.Placement
	// InvocationSize is the number of elements per accelerator invocation
	// batch (the granularity at which the tuner adapts); <= 0 uses 512.
	InvocationSize int
	// BatchSize is the detection chunk: the streaming runtime pushes up to
	// this many elements per call through the fused accelerator/checker
	// batch kernels, amortising per-call overhead, and re-executes the
	// chunk's fired elements before committing it. Process gathers a chunk
	// from whatever is already queued and never waits for more, so a
	// trickling producer still sees per-element behaviour. System.Run chunks
	// each invocation the same way. 0 uses 1 (the scalar path, bit-identical
	// to the pre-batching runtime); < 0 is an error.
	BatchSize int
	// RecoveryQueueCap is the capacity of the hardware recovery queue of
	// Figure 4, which pipeline.Simulate reads to price the accelerator's
	// back-pressure when recovery falls behind; <= 0 uses 64.
	RecoveryQueueCap int
	// RecoveryDeadline bounds one exact re-execution in the streaming
	// runtime: an element exceeding it commits the approximate output with
	// the Degraded flag instead of stalling its chunk. <= 0 disables the
	// deadline (a hung kernel then stalls the stream — only safe when
	// every kernel provably terminates).
	RecoveryDeadline time.Duration
	// Metrics receives the runtime's observability stream (counters,
	// gauges, latency histograms); nil allocates a private registry,
	// retrievable via System.Metrics / Stream.Metrics.
	Metrics *obs.Registry
	// EnergyModel supplies the analytical constants; the zero value uses
	// the calibrated defaults.
	EnergyModel *energy.Model
}

// ElementOutcome records what happened to one output element.
type ElementOutcome struct {
	PredictedError float64
	TrueError      float64 // error of the accelerator output vs exact
	Fixed          bool
}

// Report is the result of running a dataset through the Rumba system.
type Report struct {
	Elements int
	Fixed    int
	// OutputError is the application output error after merging (fixed
	// elements contribute zero error).
	OutputError float64
	// UncheckedError is the output error the accelerator alone would have
	// produced.
	UncheckedError float64
	// Outcomes has one entry per element (inputs order).
	Outcomes []ElementOutcome
	// ThresholdTrace is the tuner threshold at each invocation boundary.
	ThresholdTrace []float64
	// Energy is the whole-application energy breakdown.
	Energy energy.Breakdown
	// Speedup is the whole-application speedup over the CPU baseline.
	Speedup float64
	// Pipeline carries the overlap-simulation detail.
	Pipeline pipeline.Result
}

// System is the online Rumba runtime.
type System struct {
	cfg   Config
	model energy.Model
	obs   *obs.Registry
}

// NewSystem validates the configuration and builds a runtime.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Spec == nil || cfg.Accel == nil {
		return nil, fmt.Errorf("core: config needs a benchmark spec and an accelerator")
	}
	if cfg.Checker != nil && cfg.Tuner == nil {
		return nil, fmt.Errorf("core: a checker needs a tuner")
	}
	if cfg.RecoveryDeadline < 0 {
		return nil, fmt.Errorf("core: negative recovery deadline %v", cfg.RecoveryDeadline)
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("core: negative batch size %d", cfg.BatchSize)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	if cfg.InvocationSize <= 0 {
		cfg.InvocationSize = 512
	}
	if cfg.RecoveryQueueCap <= 0 {
		cfg.RecoveryQueueCap = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m := energy.DefaultModel()
	if cfg.EnergyModel != nil {
		m = *cfg.EnergyModel
	}
	return &System{cfg: cfg, model: m, obs: cfg.Metrics}, nil
}

// Metrics returns the system's observability registry (the one supplied in
// Config.Metrics, or the private registry allocated for it).
func (s *System) Metrics() *obs.Registry { return s.obs }

// Run processes the dataset, one invocation (Config.InvocationSize
// elements) at a time. Within an invocation the accelerator and the checker
// run in Config.BatchSize chunks through the fused batch kernels
// (exec.InvokeBatch, PredictErrorBatch). Run models recovery rather than
// performing it: the dataset's targets are the exact outputs, so an element
// the checker fires on is committed as fixed with zero error, every other
// element at its accelerator error, and the CPU re-execution's time and
// energy, the recovery queue's back-pressure included, are priced by the
// pipeline overlap model (pipeline.Simulate) and the energy model.
// The threshold only moves between invocations, so the Report is identical
// at every batch size.
func (s *System) Run(d nn.Dataset) (*Report, error) {
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
	mIn, mOut := s.obs.Counter(MetricElementsIn), s.obs.Counter(MetricElementsOut)
	mFires, mFixes := s.obs.Counter(MetricFires), s.obs.Counter(MetricFixes)
	gThreshold := s.obs.Gauge(MetricThreshold)
	flags := make([]bool, d.Len())

	// One chunk's accelerator outputs, rows of one flat array reused for
	// every chunk, and its predictions. A chunk never spans invocations.
	batch, outW := min(s.cfg.BatchSize, s.cfg.InvocationSize, d.Len()), spec.OutDim
	flat := make([]float64, batch*outW)
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = flat[i*outW : (i+1)*outW : (i+1)*outW]
	}
	preds := make([]float64, batch)

	var uncheckedSum, mergedSum float64
	for start := 0; start < d.Len(); start += s.cfg.InvocationSize {
		end := min(start+s.cfg.InvocationSize, d.Len())
		fixedThisInv := 0
		threshold := 0.0
		if s.cfg.Tuner != nil {
			threshold = s.cfg.Tuner.Threshold
			rep.ThresholdTrace = append(rep.ThresholdTrace, threshold)
			gThreshold.Set(threshold)
		}
		s.obs.Counter(MetricInvocations).Inc()
		for c := start; c < end; c += batch {
			n := min(batch, end-c)
			ins := d.Inputs[c : c+n]
			exec.InvokeBatch(s.cfg.Accel, rows[:n], ins)
			if s.cfg.Checker != nil {
				s.cfg.Checker.PredictErrorBatch(preds[:n], ins, rows[:n])
			}
			mIn.Add(int64(n))
			for j := 0; j < n; j++ {
				i := c + j
				trueErr := quality.ElementError(spec.Metric, d.Targets[i], rows[j], spec.Scale)
				out := &rep.Outcomes[i]
				out.TrueError = trueErr
				uncheckedSum += trueErr
				fire := false
				if s.cfg.Checker != nil {
					out.PredictedError = preds[j]
					fire = out.PredictedError > threshold
				}
				if !fire {
					// Output merger: the accelerator output is committed.
					mergedSum += trueErr
					continue
				}
				// The detector fires: the exact output replaces the
				// accelerator's, so the element's merged error is zero.
				out.Fixed = true
				flags[i] = true
				fixedThisInv++
				rep.Fixed++
				mFires.Inc()
			}
			mOut.Add(int64(n))
		}
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
	mFixes.Add(int64(rep.Fixed))
	if err := s.accountCosts(rep, flags); err != nil {
		return nil, err
	}
	return rep, nil
}

// EstimateUtilisation approximates the recovery CPU's utilisation while the
// accelerator runs elements invocations and the CPU re-executes fired of
// them: the CPU's re-execution cycles over the accelerator's cycles, clamped
// to 1. It is the Quality-mode tuner's InvocationStats.CPUUtilisation.
func EstimateUtilisation(acc exec.Executor, cost bench.CostModel, m energy.Model, fired, elements int) float64 {
	if elements == 0 {
		return 0
	}
	accelCycles := acc.CyclesPerInvocation() * float64(elements)
	cpuCycles := energy.KernelCPULatency(cost, m) * float64(fired)
	if accelCycles <= 0 {
		return 1
	}
	u := cpuCycles / accelCycles
	if u > 1 {
		u = 1
	}
	return u
}

// accountCosts fills in the energy breakdown, pipeline result and speedup.
func (s *System) accountCosts(rep *Report, flags []bool) error {
	spec := s.cfg.Spec
	var checkerCost predictor.Cost
	if s.cfg.Checker != nil {
		checkerCost = s.cfg.Checker.Cost()
	}
	accelInvocations := rep.Elements
	if s.cfg.Placement == accel.PlacementSerial && s.cfg.Checker != nil {
		accelInvocations = rep.Elements - rep.Fixed
	}
	var err error
	rep.Energy, err = energy.WholeAppEnergyPerInv(spec.Cost, rep.Elements, rep.Fixed,
		accelInvocations, s.cfg.Accel.EnergyPerInvocation(s.model), checkerCost, s.model)
	if err != nil {
		return err
	}
	p := pipeline.Params{
		AccelCyclesPerIter: s.cfg.Accel.CyclesPerInvocation(),
		CPURecomputeCycles: energy.KernelCPULatency(spec.Cost, s.model),
		CheckerCycles:      energy.CheckerLatencyCycles(checkerCost, s.model),
		AddCheckerToPath:   s.cfg.Placement == accel.PlacementSerial && s.cfg.Checker != nil,
		RecoveryQueueCap:   s.cfg.RecoveryQueueCap,
	}
	rep.Pipeline, err = pipeline.Simulate(flags, p)
	if err != nil {
		return err
	}
	rep.Speedup = pipeline.WholeAppSpeedup(rep.Pipeline.TotalCycles, rep.Elements,
		energy.KernelCPULatency(spec.Cost, s.model), spec.Cost.ApproxFraction)
	return nil
}
