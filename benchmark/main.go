// Command benchmark measures rumba-serve end to end and layer by layer on
// four traffic mixes. Run it from the repository root:
//
//	bash benchmark/run.sh -seed 1 -out result.json          every workload
//	bash benchmark/run.sh -workload bulk-detect -seed 7      one workload
//	bash benchmark/run.sh -trace 1 -out trace.json           the layer ladder
//	bash benchmark/run.sh -compare -base a1.json,a2.json -new b1.json,b2.json
//
// For each workload it builds the kernel packages (untimed), boots fresh
// servers on loopback TCP, runs a closed-loop capacity phase and an
// open-loop paced phase, and verifies sampled outputs. It prints every metric
// as `workload metric value unit`, and as its last line one JSON object with
// the run's correctness, request counts and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rumba/internal/bundle"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// defaultPhases are the phase lengths besides the measured window, which
// -seconds sets.
var defaultPhases = phases{warm: 2 * time.Second, setupReps: 7, ladderReqs: 400}

// run is the command. Exit status: 0 when every run is correct (or the
// comparison holds), 1 when a run fails verification or a comparison finds a
// regression or an unresolved metric, 2 on usage or set-up errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same request pool and arrival schedule")
	seconds := fs.Int("seconds", 40, "measured seconds per workload, split evenly between the capacity and paced phases")
	traced := fs.Int("trace", 0, "1 runs the layer ladder and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "write the stamped result (with -trace 1, the spans and rung tables) to this JSON file")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's kernel packages")
	doCompare := fs.Bool("compare", false, "compare -base result files with -new result files")
	base := fs.String("base", "", "comma-separated base result files, for -compare")
	newer := fs.String("new", "", "comma-separated new result files, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *doCompare {
		held, err := compare(splitList(*base), splitList(*newer), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !held {
			fmt.Fprintln(stdout, "compare: regression or unresolved metric")
			return 1
		}
		fmt.Fprintln(stdout, "compare: no regression")
		return 0
	}
	var selected []*workload
	for _, n := range splitList(*names) {
		w := findWorkload(n)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = allWorkloads()
	}
	if *seconds < 2 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 2 and -trace 0 or 1")
		return 2
	}
	ph := defaultPhases
	ph.measure = time.Duration(*seconds) * time.Second / 2
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	st := newStamp(*seed, *seconds, selected)
	results, ladders, err := runAll(selected, *seed, ph, dir, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *out != "" {
		var doc any = resultFile{Stamp: st, Results: results}
		if *traced == 1 {
			doc = struct {
				Stamp   stamp           `json:"stamp"`
				Ladders []*ladderResult `json:"ladders"`
			}{st, ladders}
		}
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	line, correct := summary(results, *traced == 1)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runAll runs each workload and prints its metrics as they finish.
func runAll(selected []*workload, seed uint64, ph phases, dir string, traced bool, stdout io.Writer) ([]*workloadResult, []*ladderResult, error) {
	bundles := map[string]*bundle.Bundle{}
	var results []*workloadResult
	var ladders []*ladderResult
	for _, w := range selected {
		res, lad, err := runWorkload(w, seed, ph, dir, bundles, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		results = append(results, res)
		for _, name := range reported(traced) {
			note := ""
			if d, _ := e2eDef(name); !traced && d.Gate == informational {
				note = " (informational, not gated)"
			}
			fmt.Fprintf(stdout, "%s %s %.6g %s%s\n", w.Name, name, res.Metrics[name], unitOf(name), note)
		}
		if !traced {
			fmt.Fprintf(stdout, "%s latency_tail_ms %.6g ms (p%g of %d samples; diagnostic, not gated)\n",
				w.Name, res.Metrics["latency_tail_ms"], res.Metrics["latency_tail_pct"], int(res.Metrics["latency_samples"]))
		}
		if lad != nil {
			ladders = append(ladders, lad)
			printRungs(stdout, lad)
		}
		for _, p := range res.Problems {
			fmt.Fprintf(stdout, "%s FAILED %s\n", w.Name, p)
		}
	}
	return results, ladders, nil
}

// reported lists the metrics a run reports: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func reported(traced bool) []string {
	var names []string
	if traced {
		for _, m := range layerMetrics {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range e2eMetrics {
		names = append(names, m.Name)
	}
	return names
}

// summary is the last output line: one JSON object with the run's
// correctness, request counts and reported metrics. Of the end-to-end
// metrics only the gated ones are in it (the invariant ones show in correct
// and failed); with several workloads each metric name is prefixed by its
// workload.
func summary(results []*workloadResult, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		doc.Correct = doc.Correct && r.Correct
		doc.Attempted += r.Attempted
		doc.Failed += r.Failed
		for _, name := range reported(traced) {
			if d, _ := e2eDef(name); !traced && d.Gate != gated {
				continue
			}
			key := name
			if len(results) > 1 {
				key = r.Workload + "." + name
			}
			doc.Metrics[key] = value{r.Metrics[name], unitOf(name)}
		}
	}
	line, _ := json.Marshal(doc)
	return string(line), doc.Correct
}

func newStamp(seed uint64, seconds int, selected []*workload) stamp {
	st := stamp{Version: benchVersion, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds}
	for _, w := range selected {
		st.Workloads = append(st.Workloads, *w)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Modified = s.Value == "true"
			}
		}
	}
	return st
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
