package experiments

import (
	"context"
	"fmt"
	"testing"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/core"
	"rumba/internal/nn"
	"rumba/internal/predictor"
	"rumba/internal/rng"
)

// ExpHotpath measures the batched hot path against its scalar references —
// the same kernel pairs internal/bench's benchmark suite covers, run
// through testing.Benchmark so rumba-bench can emit them without `go test`.
// Besides the table it writes BENCH_hotpath.json (current directory) as the
// regression baseline: ns/element, B/op and allocs/op for every pair, plus
// the two headline ratios (batched LUT forward vs scalar Forward at batch
// 64, and stream throughput at BatchSize 64 vs 1). The file is written
// atomically (temp + rename, see writeBenchJSON) and stamped with the git
// commit, toolchain and machine shape that produced the numbers.
//
// Like "serve" this experiment reports wall-clock numbers, so it is
// excluded from `-exp all` and the JSON it writes is a per-machine
// baseline, not part of the canonical results. The Context and benchmark
// arguments are unused: the hot path is measured on the acceptance
// topology (6->8->4->1), not on a trained benchmark accelerator.
func ExpHotpath(*Context, string) (*Table, error) {
	const topo = "6->8->4->1"
	net := func() *nn.Network {
		return nn.New(nn.MustTopology(topo), nn.Sigmoid, nn.Linear, rng.NewNamed("exp/hotpath/net"))
	}

	type row struct {
		Kernel   string  `json:"kernel"`
		Datapath string  `json:"datapath"`
		Batch    int     `json:"batch"`
		NsPerEl  float64 `json:"ns_per_elem"`
		BPerEl   float64 `json:"b_per_elem"`
		BPerOp   int64   `json:"b_per_op"`
		Allocs   int64   `json:"allocs_per_op"`
	}
	var rows []row
	// measure runs one body under testing.Benchmark; elems is how many
	// elements one b.N iteration processes (the ns/elem divisor), batch the
	// label recorded in the row (they differ only for the stream pair,
	// where batch is the runtime's BatchSize but every iteration pushes the
	// whole slice). Each row is the best of three repetitions: min ns/op is
	// the least-noise estimator for wall-clock timings on a shared machine,
	// and the small-batch rows (one ~500ns call per iteration) otherwise
	// swing enough to trip the CI compare gate on scheduler noise alone.
	measure := func(kernel, datapath string, batch, elems int, body func(b *testing.B)) row {
		var res testing.BenchmarkResult
		for rep := 0; rep < 3; rep++ {
			one := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				body(b)
			})
			if rep == 0 || one.NsPerOp() < res.NsPerOp() {
				res = one
			}
		}
		r := row{
			Kernel:   kernel,
			Datapath: datapath,
			Batch:    batch,
			NsPerEl:  float64(res.NsPerOp()) / float64(elems),
			BPerEl:   float64(res.AllocedBytesPerOp()) / float64(elems),
			BPerOp:   res.AllocedBytesPerOp(),
			Allocs:   res.AllocsPerOp(),
		}
		rows = append(rows, r)
		return r
	}

	inFlat := func(n int) []float64 {
		r := rng.NewNamed("exp/hotpath/in")
		flat := make([]float64, n*6)
		for i := range flat {
			flat[i] = r.Range(-1, 1)
		}
		return flat
	}
	inRows := func(n, dim int) [][]float64 {
		r := rng.NewNamed("exp/hotpath/rows")
		out := make([][]float64, n)
		for i := range out {
			row := make([]float64, dim)
			for j := range row {
				row[j] = r.Range(-1, 1)
			}
			out[i] = row
		}
		return out
	}

	// Scalar float forward: the pre-batching reference, via ForwardInto so
	// the row measures the inference alone (0 allocs/op; the output
	// allocation of the Forward convenience wrapper is not hot-path cost).
	scalarNet := net()
	scalarIn := inRows(256, 6)
	scalarDst := make([]float64, 1)
	scalar := measure("forward", "exp", 1, 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarNet.ForwardInto(scalarDst, scalarIn[i%len(scalarIn)])
		}
	})

	// Batched float forward, exp and LUT datapaths.
	var lut64 row
	for _, lut := range []bool{false, true} {
		dp := "exp"
		if lut {
			dp = "lut"
		}
		for _, n := range []int{1, 8, 64, 256} {
			bnet := net()
			scratch := bnet.NewBatchScratch(n)
			scratch.LUT = lut
			in := inFlat(n)
			dst := make([]float64, n)
			r := measure("forward-batch", dp, n, n, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bnet.ForwardBatch(dst, in, n, scratch)
				}
			})
			if lut && n == 64 {
				lut64 = r
			}
		}
	}

	// Fixed-point (Q6.10) scalar vs batch.
	q, err := nn.Quantize(net(), nn.DefaultFixedFormat)
	if err != nil {
		return nil, err
	}
	measure("fixed-forward", "q6.10", 1, 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = q.Forward(scalarIn[i%len(scalarIn)])
		}
	})
	for _, n := range []int{1, 8, 64, 256} {
		scratch := q.NewBatchScratch(n)
		in := inFlat(n)
		dst := make([]float64, n)
		measure("fixed-forward-batch", "q6.10", n, n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.ForwardBatch(dst, in, n, scratch)
			}
		})
	}

	// Q16.16 integer datapath (the rumba-tune "fixed" sweep axis) at the
	// default table resolution.
	q16, err := nn.NewQ16(net(), 0)
	if err != nil {
		return nil, err
	}
	q16Name := fmt.Sprintf("q16.16/lut%d", q16.LUTBits())
	for _, n := range []int{1, 8, 64, 256} {
		q16net := net()
		scratch := q16net.NewBatchScratch(n)
		in := inFlat(n)
		dst := make([]float64, n)
		measure("q16-forward-batch", q16Name, n, n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q16.ForwardBatch(dst, in, n, scratch)
			}
		})
	}

	// Checker kernels, scalar walk vs fused batch at 64.
	preds, err := hotpathPredictors()
	if err != nil {
		return nil, err
	}
	pin, pout := inRows(64, 6), inRows(64, 1)
	pdst := make([]float64, 64)
	for _, tc := range preds {
		p := tc.p
		measure(tc.name, "scalar", 64, 64, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for e := range pin {
					_ = p.PredictError(pin[e], pout[e])
				}
			}
		})
		p.PredictErrorBatch(pdst, pin, pout) // warm: the tree flattens once
		measure(tc.name, "batch", 64, 64, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.PredictErrorBatch(pdst, pin, pout)
			}
		})
	}

	// Full streaming runtime at BatchSize 1 vs 64 (LUT on both, never-firing
	// checker: the pair isolates the runtime's batching win).
	spec := hotpathSpec()
	streamIn := inRows(4096, 6)
	targets := make([][]float64, len(streamIn))
	for i, in := range streamIn {
		targets[i] = spec.Exact(in)
	}
	acc, err := accel.New(accel.Config{Net: net(), Scaler: nn.FitScaler(streamIn[:64], targets[:64])}, 0)
	if err != nil {
		return nil, err
	}
	acc.SetBatchLUT(true)
	streamRows := map[int]row{}
	for _, bs := range []int{1, 64} {
		bs := bs
		streamRows[bs] = measure("stream", fmt.Sprintf("lut/BatchSize=%d", bs), bs, len(streamIn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tuner, err := core.NewTuner(core.ModeTOQ, 0.10)
				if err != nil {
					b.Fatal(err)
				}
				st, err := core.NewStream(core.Config{
					Spec:           spec,
					Accel:          acc,
					Checker:        &predictor.Linear{Weights: make([]float64, 6)},
					Tuner:          tuner,
					BatchSize:      bs,
					InvocationSize: 1 << 20,
				}, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.ProcessSlice(context.Background(), streamIn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	out := struct {
		Stamp    BenchStamp `json:"stamp"`
		Topology string     `json:"topology"`
		Rows     []row      `json:"rows"`
		Headline struct {
			ForwardScalarNs  float64 `json:"forward_scalar_ns_per_elem"`
			ForwardBatch64Ns float64 `json:"forward_batch64_lut_ns_per_elem"`
			ForwardSpeedup   float64 `json:"forward_speedup"`
			StreamBatch1Ns   float64 `json:"stream_batch1_ns_per_elem"`
			StreamBatch64Ns  float64 `json:"stream_batch64_ns_per_elem"`
			StreamSpeedup    float64 `json:"stream_speedup"`
		} `json:"headline"`
	}{Stamp: newBenchStamp(), Topology: topo, Rows: rows}
	out.Headline.ForwardScalarNs = scalar.NsPerEl
	out.Headline.ForwardBatch64Ns = lut64.NsPerEl
	out.Headline.ForwardSpeedup = scalar.NsPerEl / lut64.NsPerEl
	out.Headline.StreamBatch1Ns = streamRows[1].NsPerEl
	out.Headline.StreamBatch64Ns = streamRows[64].NsPerEl
	out.Headline.StreamSpeedup = streamRows[1].NsPerEl / streamRows[64].NsPerEl

	if err := writeBenchJSON("BENCH_hotpath.json", out); err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Hot-path microbenchmarks — %s: forward %.1f -> %.1f ns/elem (%.2fx, batch 64 LUT), stream %.1f -> %.1f ns/elem (%.2fx, BatchSize 64)",
			topo, out.Headline.ForwardScalarNs, out.Headline.ForwardBatch64Ns, out.Headline.ForwardSpeedup,
			out.Headline.StreamBatch1Ns, out.Headline.StreamBatch64Ns, out.Headline.StreamSpeedup),
		Note:   "wall-clock, machine-dependent; baseline written to BENCH_hotpath.json (not part of the canonical results)",
		Header: []string{"kernel", "datapath", "batch", "ns/elem", "B/op", "allocs/op"},
	}
	for _, r := range rows {
		t.AddRow(r.Kernel, r.Datapath, fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%.2f", r.NsPerEl), fmt.Sprintf("%d", r.BPerOp), fmt.Sprintf("%d", r.Allocs))
	}
	return t, nil
}

// hotpathPredictors builds one checker per family on synthetic data (6
// kernel inputs, 1 output) — the same construction internal/bench uses.
func hotpathPredictors() ([]struct {
	name string
	p    predictor.Predictor
}, error) {
	r := rng.NewNamed("exp/hotpath/pred")
	ins := make([][]float64, 512)
	errs := make([]float64, len(ins))
	for i := range ins {
		in := make([]float64, 6)
		for j := range in {
			in[j] = r.Range(-1, 1)
		}
		ins[i] = in
		errs[i] = r.Float64() * 0.3
	}
	lin, err := predictor.FitLinear(ins, errs, nil)
	if err != nil {
		return nil, err
	}
	tree, err := predictor.FitTree(ins, errs, nil, predictor.TreeConfig{})
	if err != nil {
		return nil, err
	}
	return []struct {
		name string
		p    predictor.Predictor
	}{
		{"predict-linear", lin},
		{"predict-tree", tree},
		{"predict-ema", predictor.NewEMA(1, 1)},
	}, nil
}

// hotpathSpec is the synthetic pure kernel the stream pair runs: shaped
// like the acceptance topology, trivially exact so recovery (which the
// never-firing checker disables anyway) stays out of the measurement.
func hotpathSpec() *bench.Spec {
	return &bench.Spec{
		Name:   "hotpath",
		InDim:  6,
		OutDim: 1,
		Exact: func(in []float64) []float64 {
			s := 0.0
			for _, v := range in {
				s += v
			}
			return []float64{s}
		},
		Scale: 1,
	}
}
