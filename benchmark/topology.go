package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/bundle"
	"rumba/internal/cluster"
	"rumba/internal/core"
	"rumba/internal/obs"
	"rumba/internal/pkg"
	"rumba/internal/predictor"
	"rumba/internal/server"
	"rumba/internal/trainer"
)

// kernel is what the benchmark itself needs of one served kernel: the spec
// (exact kernel, quality metric) and the package's trained accelerator and
// default checker, to verify outputs and to drive the ladder's lower rungs.
type kernel struct {
	spec    *bench.Spec
	pkg     *pkg.Package
	checker predictor.Predictor
}

func (k *kernel) newAccel() (*accel.Accelerator, error) { return k.pkg.Bundle.Accelerator() }

// trainBundle trains one kernel's accelerator and checkers the way
// `rumba-pkg build` does. Training is deterministic, so every run of every
// commit serves the same artifact.
func trainBundle(name string) (*bundle.Bundle, error) {
	spec, err := bench.Get(name)
	if err != nil {
		return nil, err
	}
	train := spec.GenTrain(0)
	acfg, err := trainer.TrainAccelerator(spec, spec.RumbaTopo, spec.RumbaFeatures, train, trainer.DefaultAccelTrainConfig(name))
	if err != nil {
		return nil, err
	}
	acc, err := accel.New(acfg, 0)
	if err != nil {
		return nil, err
	}
	preds, err := trainer.TrainPredictors(spec, train, trainer.Observe(spec, acc, train))
	if err != nil {
		return nil, err
	}
	return bundle.New(spec, acfg, preds)
}

// corpusElems is each package's golden-corpus size. Startup replays the
// corpus, so at this size validation work, rather than goroutine and
// socket wake-ups, sets most of setup_s.
const corpusElems = 4096

// buildPackages writes one kernel package per workload kernel, at the
// workload's TOQ, into a fresh directory under workdir. It is not timed.
func buildPackages(w *workload, workdir string, bundles map[string]*bundle.Bundle) (string, []*kernel, error) {
	dir, err := os.MkdirTemp(workdir, w.Name+"-")
	if err != nil {
		return "", nil, fmt.Errorf("package dir: %w", err)
	}
	var kernels []*kernel
	for _, name := range w.Kernels {
		b := bundles[name]
		if b == nil {
			if b, err = trainBundle(name); err != nil {
				return dir, nil, fmt.Errorf("train %s: %w", name, err)
			}
			bundles[name] = b
		}
		p, err := pkg.Build(dir, b, pkg.BuildConfig{Quality: pkg.QualitySpec{TOQ: w.TOQ}, CorpusN: corpusElems})
		if err != nil {
			return dir, nil, fmt.Errorf("package %s: %w", name, err)
		}
		checker, _ := p.DefaultChecker()
		kernels = append(kernels, &kernel{spec: p.Spec, pkg: p, checker: checker})
	}
	return dir, kernels, nil
}

// topology is one workload's running system, listening on loopback TCP.
type topology struct {
	url string
	// nodes and nodeURLs are parallel; a single-node topology has one.
	nodes    []*server.Server
	nodeURLs []string
	harness  *cluster.Harness
	single   *httptest.Server
}

func nodeOptions(w *workload) server.Options {
	opts := server.Options{Defaults: server.TunerDefaults{Mode: core.ModeTOQ, Target: w.TOQ}}
	if w.Routed {
		opts.TraceCapacity = 256
		opts.TraceSampleEvery = 16
		opts.HistoryInterval = time.Second
		opts.SLO = server.SLOOptions{Enabled: true}
	}
	return opts
}

// newNode loads the package directory through the serving layer's startup
// gate (checksums, validation, corpus replay) and builds one server on it.
func newNode(pkgDir string, opts server.Options) (*server.Server, error) {
	reg := server.NewKernelRegistry()
	if _, err := reg.LoadPackageDir(pkgDir); err != nil {
		return nil, err
	}
	return server.New(reg, opts)
}

func boot(w *workload, pkgDir string) (*topology, error) {
	if !w.Routed {
		s, err := newNode(pkgDir, nodeOptions(w))
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(s.Handler())
		return &topology{url: hs.URL, nodes: []*server.Server{s}, nodeURLs: []string{hs.URL}, single: hs}, nil
	}
	h, err := cluster.NewHarness(cluster.HarnessOptions{
		Nodes: 3,
		Router: cluster.Options{
			TraceCapacity:    256,
			TraceSampleEvery: 16,
			Probe:            cluster.ProbeConfig{Interval: time.Second},
		},
		Registry: func(int) (*server.Registry, error) {
			reg := server.NewKernelRegistry()
			_, err := reg.LoadPackageDir(pkgDir)
			return reg, err
		},
		ServerOptions: func(int) server.Options { return nodeOptions(w) },
	})
	if err != nil {
		return nil, err
	}
	// The router is ready once it has probed every node.
	h.Router.Membership().ProbeNow(context.Background())
	t := &topology{url: h.URL(), harness: h}
	for _, n := range h.Nodes {
		t.nodes = append(t.nodes, n.Server)
		t.nodeURLs = append(t.nodeURLs, n.HTTP.URL)
	}
	return t, nil
}

func (t *topology) close() {
	if t.harness != nil {
		t.harness.Close()
		return
	}
	t.single.Close()
	_ = t.nodes[0].Shutdown(context.Background()) // drains in-process work; no state file to write
}

// node returns the index of the node that serves tenant.
func (t *topology) node(tenant string) int {
	if t.harness == nil {
		return 0
	}
	owner := t.harness.Router.Ring().Owner(tenant)
	for i, n := range t.harness.Nodes {
		if n.Name == owner {
			return i
		}
	}
	return 0
}

// metrics is the merged registry snapshot of every node and the router.
func (t *topology) metrics() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(t.nodes)+1)
	for _, s := range t.nodes {
		snaps = append(snaps, s.Metrics().Snapshot())
	}
	if t.harness != nil {
		snaps = append(snaps, t.harness.Router.Metrics().Snapshot())
	}
	return obs.Merge(snaps...)
}

// setUp boots the topology reps times, each time up to the first accepted
// request, and returns the last one running with the median boot time.
func setUp(w *workload, pkgDir string, first []byte, reps int) (*topology, float64, error) {
	var times []float64
	var topo *topology
	for i := 0; i < reps; i++ {
		if topo != nil {
			topo.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if topo, err = boot(w, pkgDir); err != nil {
			return nil, 0, fmt.Errorf("boot %s: %w", w.Name, err)
		}
		c := newConn(topo.url)
		_, err = c.post(first, nil)
		c.close()
		if err != nil {
			topo.close()
			return nil, 0, fmt.Errorf("first request on %s: %w", w.Name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return topo, median(times), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
