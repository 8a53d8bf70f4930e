// Package bundle serialises everything the offline trainers produce for one
// application — the accelerator configuration and the trained checkers —
// into a single artifact. Figure 4 shows these "embedded in the binary";
// here the binary's embedded section is a JSON blob that rumba-train writes
// and a deployment loads at startup.
package bundle

import (
	"encoding/json"
	"fmt"
	"os"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/predictor"
	"rumba/internal/trainer"
)

// FormatVersion guards against loading artifacts written by an incompatible
// build.
const FormatVersion = 1

// Bundle is the complete offline-training artifact for one benchmark.
type Bundle struct {
	Version   int    `json:"version"`
	Benchmark string `json:"benchmark"`

	Accel accel.Config `json:"accel"`

	Linear *predictor.Linear `json:"linear"`
	Tree   *predictor.Tree   `json:"tree"`
	// EMAHistory and EMAScale reconstruct the EMA checker (its runtime
	// state is not persisted).
	EMAHistory int     `json:"emaHistory"`
	EMAScale   float64 `json:"emaScale"`
}

// New assembles a bundle from training outputs.
func New(spec *bench.Spec, acfg accel.Config, preds trainer.PredictorSet) (*Bundle, error) {
	if spec == nil || acfg.Net == nil {
		return nil, fmt.Errorf("bundle: incomplete inputs")
	}
	b := &Bundle{
		Version:   FormatVersion,
		Benchmark: spec.Name,
		Accel:     acfg,
		Linear:    preds.Linear,
		Tree:      preds.Tree,
	}
	if preds.EMA != nil {
		b.EMAHistory = preds.EMA.N
		b.EMAScale = preds.EMA.Scale
	}
	return b, nil
}

// Validate checks internal consistency and that the named benchmark exists.
// It verifies the whole blob shape, not just the version: a bundle that
// passes Validate must be invokable without panicking, so every index the
// accelerator or a checker will later trust — feature projections, scaler
// widths, EMA history — is bounds-checked here, where a corrupt artifact
// turns into an error instead of a crash in the detection loop.
func (b *Bundle) Validate() (*bench.Spec, error) {
	if b.Version != FormatVersion {
		return nil, fmt.Errorf("bundle: version %d, this build reads %d", b.Version, FormatVersion)
	}
	spec, err := bench.Get(b.Benchmark)
	if err != nil {
		return nil, err
	}
	if b.Accel.Net == nil || b.Accel.Scaler == nil {
		return nil, fmt.Errorf("bundle: missing accelerator configuration")
	}
	net := b.Accel.Net
	if err := net.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("bundle: accelerator topology: %w", err)
	}
	if net.Topo.Outputs() != spec.OutDim {
		return nil, fmt.Errorf("bundle: accelerator outputs %d, benchmark %s wants %d",
			net.Topo.Outputs(), spec.Name, spec.OutDim)
	}
	// The accelerator stages inputs with row[i] = in[Features[i]] — an
	// out-of-range index from a corrupt blob would panic on first Invoke.
	if b.Accel.Features == nil {
		if net.Topo.Inputs() != spec.InDim {
			return nil, fmt.Errorf("bundle: accelerator inputs %d, benchmark %s kernel has %d",
				net.Topo.Inputs(), spec.Name, spec.InDim)
		}
	} else {
		if len(b.Accel.Features) != net.Topo.Inputs() {
			return nil, fmt.Errorf("bundle: %d projected features but accelerator wants %d inputs",
				len(b.Accel.Features), net.Topo.Inputs())
		}
		for i, idx := range b.Accel.Features {
			if idx < 0 || idx >= spec.InDim {
				return nil, fmt.Errorf("bundle: feature %d index %d out of range for %s kernel inputs [0,%d)",
					i, idx, spec.Name, spec.InDim)
			}
		}
	}
	// The scaler is indexed per network input/output word; short min/max
	// vectors would panic inside ScaleInTo/UnscaleOutTo.
	sc := b.Accel.Scaler
	if len(sc.InMin) != net.Topo.Inputs() || len(sc.InMax) != net.Topo.Inputs() {
		return nil, fmt.Errorf("bundle: scaler input range has %d/%d values, accelerator wants %d",
			len(sc.InMin), len(sc.InMax), net.Topo.Inputs())
	}
	if len(sc.OutMin) != spec.OutDim || len(sc.OutMax) != spec.OutDim {
		return nil, fmt.Errorf("bundle: scaler output range has %d/%d values, benchmark %s wants %d",
			len(sc.OutMin), len(sc.OutMax), spec.Name, spec.OutDim)
	}
	if b.Linear != nil {
		want := spec.InDim
		if b.Linear.Features != nil {
			want = len(b.Linear.Features)
		}
		if len(b.Linear.Weights) != want {
			return nil, fmt.Errorf("bundle: linear checker has %d weights for %d features",
				len(b.Linear.Weights), want)
		}
	}
	if b.Tree != nil {
		for i, n := range b.Tree.Nodes {
			if n.Feature >= 0 && (n.Left < 0 || n.Right < 0 ||
				int(n.Left) >= len(b.Tree.Nodes) || int(n.Right) >= len(b.Tree.Nodes)) {
				return nil, fmt.Errorf("bundle: tree checker node %d child index out of range", i)
			}
		}
	}
	if b.EMAHistory < 0 {
		return nil, fmt.Errorf("bundle: negative EMA history %d", b.EMAHistory)
	}
	return spec, nil
}

// Predictors reconstructs the checker set.
func (b *Bundle) Predictors() trainer.PredictorSet {
	ps := trainer.PredictorSet{Linear: b.Linear, Tree: b.Tree}
	if b.EMAHistory > 0 {
		ps.EMA = predictor.NewEMA(b.EMAHistory, b.EMAScale)
	}
	return ps
}

// Accelerator builds the configured accelerator (paper-default PEs).
func (b *Bundle) Accelerator() (*accel.Accelerator, error) {
	return accel.New(b.Accel, 0)
}

// Save writes the bundle as indented JSON.
func Save(path string, b *Bundle) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	return nil
}

// Load reads and validates a bundle file.
func Load(path string) (*Bundle, *bench.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("bundle: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a bundle from its JSON bytes.
func Parse(data []byte) (*Bundle, *bench.Spec, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("bundle: %w", err)
	}
	spec, err := b.Validate()
	if err != nil {
		return nil, nil, err
	}
	return &b, spec, nil
}
