// Streaming with cancellation, degradation and live metrics: the hardened
// online runtime.
//
// A long-lived service feeds kernel inputs through core.Stream as they
// arrive: each chunk of queued inputs is detected, its fired elements are
// re-executed on up to three recovery goroutines, and the results are
// delivered in order. A per-element deadline turns a stuck exact
// re-execution into a Degraded (approximate) result instead of a stalled
// stream, and the whole run can be cancelled through a context. The
// runtime's observability registry is printed at the end — the same
// snapshot rumba-demo -stream serves over expvar.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/core"
	"rumba/internal/trainer"
)

func main() {
	spec, err := bench.Get("fft")
	if err != nil {
		log.Fatal(err)
	}

	train := spec.GenTrain(4000)
	acfg, err := trainer.TrainAccelerator(spec, spec.RumbaTopo, spec.RumbaFeatures, train,
		trainer.DefaultAccelTrainConfig(spec.Name))
	if err != nil {
		log.Fatal(err)
	}
	acc, err := accel.New(acfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	preds, err := trainer.TrainPredictors(spec, train, trainer.Observe(spec, acc, train))
	if err != nil {
		log.Fatal(err)
	}

	tuner, err := core.NewTuner(core.ModeTOQ, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	st, err := core.NewStream(core.Config{
		Spec:    spec,
		Accel:   acc,
		Checker: preds.Tree,
		Tuner:   tuner,
		// A stuck exact re-execution degrades after 50ms.
		RecoveryDeadline: 50 * time.Millisecond,
	}, 3)
	if err != nil {
		log.Fatal(err)
	}

	// The producer honours the same context as the stream: cancelling ctx
	// (a shutdown signal in a real service) stops both without leaking a
	// goroutine.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	test := spec.GenTest(6000)
	inputs := make(chan []float64)
	go func() {
		defer close(inputs)
		for _, in := range test.Inputs {
			select {
			case inputs <- in:
			case <-ctx.Done():
				return
			}
		}
	}()

	results, err := st.Process(ctx, inputs)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := core.EvaluateStream(results, test.Targets, spec.Metric, spec.Scale)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %d elements: %d re-executed, %d degraded, %.2f%% output error\n",
		stats.Elements, stats.Fixed, stats.Degraded, 100*stats.OutputError)

	snap := st.Metrics().Snapshot()
	fmt.Println("\nobservability snapshot:")
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %d\n", n, snap.Counters[n])
	}
	if h, ok := snap.Histograms[core.MetricDetectNs]; ok {
		fmt.Printf("  %-30s mean %.0fns  p99 <=%.0fns\n", core.MetricDetectNs, h.Mean(), h.Quantile(0.99))
	}
}
