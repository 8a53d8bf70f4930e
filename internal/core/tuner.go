package core

import (
	"encoding/json"
	"fmt"
)

// TunerMode selects the online-tuning policy of Section 3.4.
type TunerMode int

const (
	// ModeTOQ holds the threshold at the user's target-output-quality
	// error bound: any element whose predicted error exceeds the bound is
	// re-executed.
	ModeTOQ TunerMode = iota
	// ModeEnergy adapts the threshold to keep the number of re-executed
	// iterations within a per-invocation iteration budget derived from the
	// user's energy target.
	ModeEnergy
	// ModeQuality maximises re-execution subject to the CPU keeping up
	// with the accelerator (no slowdown).
	ModeQuality
)

// String implements fmt.Stringer.
func (m TunerMode) String() string {
	switch m {
	case ModeTOQ:
		return "TOQ"
	case ModeEnergy:
		return "Energy"
	case ModeQuality:
		return "Quality"
	default:
		return fmt.Sprintf("TunerMode(%d)", int(m))
	}
}

// MarshalText implements encoding.TextMarshaler so serialized tuner state
// spells modes by name rather than by ordinal.
func (m TunerMode) MarshalText() ([]byte, error) {
	switch m {
	case ModeTOQ, ModeEnergy, ModeQuality:
		return []byte(m.String()), nil
	default:
		return nil, fmt.Errorf("core: cannot marshal unknown tuner mode %d", int(m))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *TunerMode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "TOQ":
		*m = ModeTOQ
	case "Energy":
		*m = ModeEnergy
	case "Quality":
		*m = ModeQuality
	default:
		return fmt.Errorf("core: unknown tuner mode %q", text)
	}
	return nil
}

// Tuner adjusts the detection threshold between accelerator invocations.
// The zero value is not usable; construct with NewTuner.
type Tuner struct {
	Mode TunerMode
	// Threshold is the current firing threshold on the predicted error.
	Threshold float64

	// TargetError is the TOQ-mode error bound (1 - TOQ).
	TargetError float64
	// IterationBudget is the Energy-mode per-invocation re-execution
	// budget, as a fraction of invocation elements.
	IterationBudget float64
	// KeepUpFraction is the Quality-mode bound: the largest re-execution
	// fraction for which the CPU still hides behind the accelerator
	// (accelerator cycles per iteration / CPU recompute cycles).
	KeepUpFraction float64

	minThreshold, maxThreshold float64
}

// NewTuner builds a tuner. For ModeTOQ, target is the error bound (e.g. 0.10
// for 90% TOQ) and is also the fixed threshold. For ModeEnergy, target is
// the iteration budget fraction. For ModeQuality, target is the keep-up
// fraction.
func NewTuner(mode TunerMode, target float64) (*Tuner, error) {
	t := &Tuner{Mode: mode, Threshold: 0.1, minThreshold: 1e-4, maxThreshold: 10}
	switch mode {
	case ModeTOQ:
		t.TargetError, t.Threshold = target, target
	case ModeEnergy:
		t.IterationBudget = target
	case ModeQuality:
		t.KeepUpFraction = target
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate reports whether the tuner's mode is known and its target is one
// NewTuner accepts for that mode: a TOQ error bound of at least 0, an
// energy budget or a keep-up fraction in (0, 1]. A serving layer calls it on
// tuner state it restores from outside.
func (t *Tuner) Validate() error {
	switch t.Mode {
	case ModeTOQ:
		if !(t.TargetError >= 0) {
			return fmt.Errorf("core: negative tuner target %v", t.TargetError)
		}
	case ModeEnergy:
		if !(t.IterationBudget > 0 && t.IterationBudget <= 1) {
			return fmt.Errorf("core: energy-mode budget %v must be in (0,1]", t.IterationBudget)
		}
	case ModeQuality:
		if !(t.KeepUpFraction > 0 && t.KeepUpFraction <= 1) {
			return fmt.Errorf("core: quality-mode keep-up fraction %v must be in (0,1]", t.KeepUpFraction)
		}
	default:
		return fmt.Errorf("core: unknown tuner mode %v", t.Mode)
	}
	return nil
}

// InvocationStats summarises one accelerator invocation for the tuner.
type InvocationStats struct {
	Elements int
	Fixed    int
	// CPUUtilisation is the recovery CPU's utilisation during the
	// invocation (Quality mode input).
	CPUUtilisation float64
}

// Observe updates the threshold after an invocation, per Section 3.4:
//
//   - TOQ: the threshold stays pinned at the error bound.
//   - Energy: going over the iteration budget raises the threshold (fewer
//     fixes next time); finishing under budget lowers it.
//   - Quality: an underutilised CPU means capacity for more fixes (lower
//     threshold); unfinished re-executions when the accelerator completes
//     mean the threshold must rise.
func (t *Tuner) Observe(s InvocationStats) {
	if s.Elements <= 0 {
		return
	}
	fixedFrac := float64(s.Fixed) / float64(s.Elements)
	switch t.Mode {
	case ModeTOQ:
		t.Threshold = t.TargetError
	case ModeEnergy:
		// Proportional control: overshooting the iteration budget by 2x
		// doubles the threshold, undershooting relaxes it. A small
		// deadband avoids oscillation at the budget.
		ratio := fixedFrac / t.IterationBudget
		switch {
		case ratio > 1.05:
			t.scale(minf(ratio, 2.0))
		case ratio < 0.95:
			t.scale(maxf(ratio, 0.8))
		}
	case ModeQuality:
		if fixedFrac > t.KeepUpFraction {
			// The CPU fell behind: re-execute less next invocation.
			t.raise()
		} else if s.CPUUtilisation < 0.9 {
			// Headroom left: fix more next invocation.
			t.lower()
		}
	}
}

// tunerJSON is the serialized form of a Tuner. It spells every field out,
// including the threshold clamp bounds, so a restored tuner resumes with
// exactly the dynamics it had when snapshotted.
type tunerJSON struct {
	Mode            TunerMode `json:"mode"`
	Threshold       float64   `json:"threshold"`
	TargetError     float64   `json:"targetError,omitempty"`
	IterationBudget float64   `json:"iterationBudget,omitempty"`
	KeepUpFraction  float64   `json:"keepUpFraction,omitempty"`
	MinThreshold    float64   `json:"minThreshold"`
	MaxThreshold    float64   `json:"maxThreshold"`
}

// MarshalJSON serialises the tuner's complete state — mode, targets, live
// threshold and clamp bounds — so an online deployment can snapshot its
// quality-control state and resume it after a restart (rumba-serve persists
// one tuner per tenant×kernel this way).
func (t *Tuner) MarshalJSON() ([]byte, error) {
	return json.Marshal(tunerJSON{
		Mode:            t.Mode,
		Threshold:       t.Threshold,
		TargetError:     t.TargetError,
		IterationBudget: t.IterationBudget,
		KeepUpFraction:  t.KeepUpFraction,
		MinThreshold:    t.minThreshold,
		MaxThreshold:    t.maxThreshold,
	})
}

// UnmarshalJSON restores a serialised tuner. Missing clamp bounds (or a
// snapshot written before they were serialised) fall back to the NewTuner
// defaults rather than leaving a tuner that can never move.
func (t *Tuner) UnmarshalJSON(data []byte) error {
	var raw tunerJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Threshold < 0 {
		return fmt.Errorf("core: negative serialised threshold %v", raw.Threshold)
	}
	if raw.MinThreshold <= 0 {
		raw.MinThreshold = 1e-4
	}
	if raw.MaxThreshold <= 0 {
		raw.MaxThreshold = 10
	}
	if raw.MinThreshold > raw.MaxThreshold {
		return fmt.Errorf("core: serialised threshold bounds inverted: min %v > max %v",
			raw.MinThreshold, raw.MaxThreshold)
	}
	t.Mode = raw.Mode
	t.Threshold = raw.Threshold
	t.TargetError = raw.TargetError
	t.IterationBudget = raw.IterationBudget
	t.KeepUpFraction = raw.KeepUpFraction
	t.minThreshold = raw.MinThreshold
	t.maxThreshold = raw.MaxThreshold
	return nil
}

func (t *Tuner) raise() { t.scale(1.3) }
func (t *Tuner) lower() { t.scale(0.8) }

func (t *Tuner) scale(f float64) {
	t.Threshold *= f
	if t.Threshold > t.maxThreshold {
		t.Threshold = t.maxThreshold
	}
	if t.Threshold < t.minThreshold {
		t.Threshold = t.minThreshold
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
