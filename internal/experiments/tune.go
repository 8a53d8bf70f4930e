package experiments

import (
	"fmt"
	"time"

	"rumba/internal/bundle"
	"rumba/internal/pkg"
	"rumba/internal/tune"
	"rumba/internal/tune/measure"
)

// ExpTune runs the rumba-tune autotuner over the trained benchmark kernels:
// per kernel it sweeps datapath × batch × table resolution × checker with
// the surrogate-pruned pass (internal/tune), reports how much of the grid
// the prune saved and where the frontier landed, and writes BENCH_tune.json
// as the per-machine autotuning baseline. The headline compares the best
// exp-datapath and fixed-datapath survivors at batch >= 64 — the regime
// where the Q16.16 integer path should win on ns/element.
//
// Like "serve" and "hotpath" this experiment reports wall-clock
// numbers, so it is excluded from `-exp all` and its JSON is a per-machine
// baseline, not part of the canonical results.
func ExpTune(c *Context, benchmark string) (*Table, error) {
	names := []string{benchmark}
	if benchmark == "" {
		names = allBenchNames()
	}

	type kernelRow struct {
		Kernel        string  `json:"kernel"`
		GridSize      int     `json:"grid_size"`
		Evaluated     int     `json:"evaluated"`
		Pruned        int     `json:"pruned"`
		PredictedOnly int     `json:"predicted_only"`
		FrontierSize  int     `json:"frontier_size"`
		CheapestKey   string  `json:"cheapest_key"`
		CheapestNs    float64 `json:"cheapest_ns_per_elem"`
		ExpNs64       float64 `json:"exp_ns_per_elem_batch64"`
		FixedNs64     float64 `json:"fixed_ns_per_elem_batch64"`
		FixedWins     bool    `json:"fixed_wins_batch64"`
	}
	var rows []kernelRow
	var reports []*tune.SweepReport

	for _, name := range names {
		p, err := c.Prepare(name)
		if err != nil {
			return nil, err
		}
		b, err := bundle.New(p.Spec, p.RumbaAccel.Config(), p.Preds)
		if err != nil {
			return nil, err
		}
		corpus := pkg.GenerateCorpus(p.Spec, 96)
		m, err := measure.NewBundleMeasurer(b, corpus, 0.10, measure.Config{
			BenchTime: 2 * time.Millisecond,
			MaxCorpus: 48,
		})
		if err != nil {
			return nil, err
		}
		checkers := m.CheckerNames()
		if len(checkers) == 0 {
			checkers = []string{"none"}
		}
		axes := tune.DefaultAxes(checkers)
		// Reduced grid: the full batch curve but fewer table resolutions,
		// keeping the sweep minutes-not-hours while still exercising the
		// surrogate prune on a 3-D space.
		axes.Batches = []int{1, 8, 64, 256}
		axes.LUTBits = []int{8, 10, 12}
		rep, err := tune.Sweep(name, axes, m, tune.SweepConfig{})
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)

		row := kernelRow{
			Kernel:        name,
			GridSize:      rep.GridSize,
			Evaluated:     rep.Evaluated,
			Pruned:        rep.Pruned,
			PredictedOnly: rep.PredictedOnly,
			FrontierSize:  len(rep.Frontier),
		}
		if len(rep.Frontier) > 0 {
			row.CheapestKey = rep.Frontier[0].Key()
			row.CheapestNs = rep.Frontier[0].NsPerElem
		}
		row.ExpNs64 = bestNsAt(rep.Points, tune.DatapathExp, 64)
		row.FixedNs64 = bestNsAt(rep.Points, tune.DatapathFixed, 64)
		// Exp absent at batch >= 64 means the prune already found it
		// dominated there — the fixed path (or lut) beat it by the margin.
		row.FixedWins = row.FixedNs64 > 0 && (row.ExpNs64 == 0 || row.FixedNs64 < row.ExpNs64)
		rows = append(rows, row)
	}

	f, err := tune.NewFrontier(reports)
	if err != nil {
		return nil, err
	}
	out := struct {
		Stamp    BenchStamp  `json:"stamp"`
		Checksum string      `json:"frontier_checksum"`
		Kernels  []kernelRow `json:"kernels"`
	}{Stamp: newBenchStamp(), Checksum: f.Checksum, Kernels: rows}
	if err := writeBenchJSON("BENCH_tune.json", out); err != nil {
		return nil, err
	}

	wins := 0
	for _, r := range rows {
		if r.FixedWins {
			wins++
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Autotuner sweep — fixed-point beats exp on ns/elem at batch >= 64 on %d/%d kernels",
			wins, len(rows)),
		Note:   "wall-clock, machine-dependent; baseline written to BENCH_tune.json (not part of the canonical results)",
		Header: []string{"kernel", "grid", "evaluated", "pruned", "frontier", "cheapest point", "exp ns/elem b>=64", "fixed ns/elem b>=64"},
	}
	for _, r := range rows {
		t.AddRow(r.Kernel, fmt.Sprintf("%d", r.GridSize), fmt.Sprintf("%d", r.Evaluated),
			fmt.Sprintf("%d", r.Pruned), fmt.Sprintf("%d", r.FrontierSize), r.CheapestKey,
			nsOrPruned(r.ExpNs64), nsOrPruned(r.FixedNs64))
	}
	return t, nil
}

// bestNsAt returns the cheapest surviving ns/elem for a datapath at or above
// minBatch; 0 when the prune left no such point.
func bestNsAt(points []tune.Point, datapath string, minBatch int) float64 {
	best := 0.0
	for _, p := range points {
		if p.Datapath != datapath || p.Batch < minBatch {
			continue
		}
		if best == 0 || p.NsPerElem < best {
			best = p.NsPerElem
		}
	}
	return best
}

func nsOrPruned(ns float64) string {
	if ns == 0 {
		return "pruned"
	}
	return fmt.Sprintf("%.1f", ns)
}

// allBenchNames is the tune sweep's kernel list (the seven paper benchmarks).
func allBenchNames() []string {
	return []string{"blackscholes", "fft", "inversek2j", "jmeint", "jpeg", "kmeans", "sobel"}
}
