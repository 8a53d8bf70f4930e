package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// stamp identifies what a result was measured with. -compare refuses to
// compare results whose benchmark version, GOMAXPROCS or workload
// definitions differ.
type stamp struct {
	Version    int        `json:"benchmark_version"`
	Commit     string     `json:"git_commit,omitempty"`
	Modified   bool       `json:"git_modified,omitempty"`
	GoVersion  string     `json:"go_version"`
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Seed       uint64     `json:"seed"`
	Seconds    int        `json:"seconds"`
	Workloads  []workload `json:"workloads"`
}

// resultFile is what `-out` writes for an untraced run.
type resultFile struct {
	Stamp   stamp             `json:"stamp"`
	Results []*workloadResult `json:"results"`
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartiles returns the first and third quartiles of v, interpolated as
// Python's statistics.quantiles(v, n=4) does by default ("exclusive").
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}

// verdict compares one workload × metric. A metric is "better" when every
// new run beats every base run; otherwise "unresolved" when either side's
// interquartile spread is wider than the bound; otherwise a "regression"
// when the new median is worse than the base median by more than the bound.
func verdict(d metricDef, base, cur []float64) (string, float64) {
	bm, cm := median(base), median(cur)
	bound := math.Max(d.Rel*math.Abs(bm), d.Abs)
	worse := cm - bm
	beats := minOf(base) > maxOf(cur)
	if d.Better == "higher" {
		worse = bm - cm
		beats = minOf(cur) > maxOf(base)
	}
	bq1, bq3 := quartiles(base)
	cq1, cq3 := quartiles(cur)
	switch {
	case beats:
		return "better", bound
	case bq3-bq1 > bound || cq3-cq1 > bound:
		return "unresolved", bound
	case worse > bound:
		return "regression", bound
	}
	return "ok", bound
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// compare gates new results against base results and reports whether every
// workload × gated or invariant end-to-end metric held: no regression and
// nothing unresolved. Informational metrics are compared and printed only.
func compare(basePaths, newPaths []string, out io.Writer) (bool, error) {
	if len(basePaths) == 0 || len(newPaths) == 0 {
		return false, fmt.Errorf("compare needs -base and -new result files")
	}
	var files []*resultFile
	for _, p := range append(append([]string(nil), basePaths...), newPaths...) {
		r, err := readResult(p)
		if err != nil {
			return false, err
		}
		files = append(files, r)
	}
	defs := map[string]string{}
	for i, f := range files {
		if f.Stamp.Version != files[0].Stamp.Version || f.Stamp.GOMAXPROCS != files[0].Stamp.GOMAXPROCS {
			return false, fmt.Errorf("stamp mismatch: benchmark version %d / GOMAXPROCS %d in %d-th file vs %d / %d",
				f.Stamp.Version, f.Stamp.GOMAXPROCS, i+1, files[0].Stamp.Version, files[0].Stamp.GOMAXPROCS)
		}
		for _, w := range f.Stamp.Workloads {
			enc, _ := json.Marshal(w)
			if prev, ok := defs[w.Name]; ok && prev != string(enc) {
				return false, fmt.Errorf("workload %s is defined differently across the files: %s vs %s", w.Name, prev, enc)
			}
			defs[w.Name] = string(enc)
		}
	}
	values := func(fs []*resultFile, wl, metric string) []float64 {
		var v []float64
		for _, f := range fs {
			for _, r := range f.Results {
				if val, ok := r.Metrics[metric]; ok && r.Workload == wl {
					v = append(v, val)
				}
			}
		}
		return v
	}
	base, cur := files[:len(basePaths)], files[len(basePaths):]
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase IQR\tnew median\tnew IQR\tbound\tverdict")
	held := true
	compared := 0
	for _, w := range workloads {
		for _, d := range e2eMetrics {
			b, c := values(base, w.Name, d.Name), values(cur, w.Name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, bound := verdict(d, b, c)
			if d.Gate == informational {
				v += " (not gated)"
			} else {
				held = held && (v == "ok" || v == "better")
			}
			compared++
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%.3g\t%s\n", w.Name, d.Name, median(b), bq3-bq1, median(c), cq3-cq1, bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if compared == 0 {
		return false, fmt.Errorf("no workload appears on both sides")
	}
	return held, nil
}
