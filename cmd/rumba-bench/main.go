// Command rumba-bench regenerates the tables and figures of the Rumba paper
// (see the per-experiment index in DESIGN.md):
//
//	rumba-bench -exp all                 # everything, paper-sized
//	rumba-bench -exp fig14 -reduced      # one figure, fast datasets
//	rumba-bench -exp fig10 -benchmark sobel
//	rumba-bench -list                    # available experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rumba/internal/experiments"
)

type runner func(c *experiments.Context, benchmark string) (string, error)

// renderMode is set from the -format flag before any runner executes.
var renderMode = "text"

func tab1(t *experiments.Table, err error) (string, error) {
	return render(t, err)
}

var registry = map[string]runner{
	"table1": func(*experiments.Context, string) (string, error) {
		return render(experiments.Table1(), nil)
	},
	"table2": func(*experiments.Context, string) (string, error) {
		return render(experiments.Table2(), nil)
	},
	"fig1": func(c *experiments.Context, b string) (string, error) {
		return tab1(experiments.Fig1(c, b))
	},
	"fig2": func(c *experiments.Context, _ string) (string, error) {
		t, _, err := experiments.Fig2(c)
		return render(t, err)
	},
	"fig3": func(c *experiments.Context, _ string) (string, error) {
		t, _, err := experiments.Fig3(c)
		return render(t, err)
	},
	"fig5": func(c *experiments.Context, _ string) (string, error) {
		t, _, err := experiments.Fig5(c)
		return render(t, err)
	},
	"fig10": func(c *experiments.Context, b string) (string, error) {
		names := []string{b}
		if b == "" {
			names = allBenchmarks()
		}
		var sb strings.Builder
		for _, n := range names {
			t, _, err := experiments.Fig10(c, n)
			if err != nil {
				return "", err
			}
			if renderMode == "md" {
				sb.WriteString(t.RenderMarkdown())
			} else {
				sb.WriteString(t.Render())
			}
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	},
	"fig11": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig11(c, splitBench(b)...)
		return render(t, err)
	},
	"fig12": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig12(c, splitBench(b)...)
		return render(t, err)
	},
	"fig13": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig13(c, splitBench(b)...)
		return render(t, err)
	},
	"fig14": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig14(c, splitBench(b)...)
		return render(t, err)
	},
	"fig15": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig15(c, splitBench(b)...)
		return render(t, err)
	},
	"fig16": func(c *experiments.Context, _ string) (string, error) {
		t, _, err := experiments.Fig16(c)
		return render(t, err)
	},
	"fig17": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig17(c, splitBench(b)...)
		return render(t, err)
	},
	"fig18": func(c *experiments.Context, b string) (string, error) {
		t, _, err := experiments.Fig18(c, b)
		return render(t, err)
	},
	"headline": func(c *experiments.Context, _ string) (string, error) {
		t, _, err := experiments.Headline(c)
		return render(t, err)
	},
	"sampling": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.ExpSampling(c, b))
	},
	"margin": func(c *experiments.Context, _ string) (string, error) {
		return render(experiments.ExpMargin(c))
	},
	"ablation-placement": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.AblationPlacement(c, splitBench(b)...))
	},
	"ablation-treedepth": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.AblationTreeDepth(c, b))
	},
	"ablation-ema": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.AblationEMAHistory(c, b))
	},
	"autoselect": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.ExpAutoSelect(c, splitBench(b)...))
	},
	// "serve" load-tests the rumba-serve layer in-process. It reports
	// wall-clock latencies, so it is not part of experimentOrder: `-exp all`
	// output stays deterministic and comparable against the checked-in
	// results.
	"serve": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.ExpServe(c, b))
	},
	// "hotpath" microbenchmarks the batched datapath against its scalar
	// references and writes BENCH_hotpath.json; wall-clock like "serve",
	// so it too stays out of -exp all.
	"hotpath": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.ExpHotpath(c, b))
	},
	// "tune" runs the autotuner sweep over the trained kernels and writes
	// BENCH_tune.json; wall-clock like "hotpath", so it too stays out of
	// -exp all.
	"tune": func(c *experiments.Context, b string) (string, error) {
		return render(experiments.ExpTune(c, b))
	},
}

func render(t *experiments.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if renderMode == "md" {
		return t.RenderMarkdown(), nil
	}
	return t.Render(), nil
}

func splitBench(b string) []string {
	if b == "" {
		return nil
	}
	return strings.Split(b, ",")
}

func allBenchmarks() []string {
	return []string{"blackscholes", "fft", "inversek2j", "jmeint", "jpeg", "kmeans", "sobel"}
}

// experimentOrder is the presentation order for -exp all.
var experimentOrder = []string{
	"table1", "table2", "fig1", "fig2", "fig3", "fig5",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "headline",
	"sampling", "margin", "autoselect",
	"ablation-placement", "ablation-treedepth", "ablation-ema",
}

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1..fig18, table1, table2, headline, all)")
	benchmark := flag.String("benchmark", "", "restrict to one benchmark (comma-separated list where supported)")
	reduced := flag.Bool("reduced", false, "use reduced dataset sizes (fast, for smoke runs)")
	format := flag.String("format", "text", "output format: text or md (markdown)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json baselines: rumba-bench -compare old.json new.json; exits non-zero on any ns/elem regression beyond -compare-threshold")
	compareThreshold := flag.Float64("compare-threshold", experiments.DefaultCompareThresholdPct, "relative ns/elem regression (percent) that fails -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "rumba-bench: -compare needs exactly two baseline files: old.json new.json")
			os.Exit(2)
		}
		res, err := experiments.CompareBenchFiles(flag.Arg(0), flag.Arg(1), *compareThreshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rumba-bench:", err)
			os.Exit(1)
		}
		if *format == "md" {
			fmt.Println(res.Table().RenderMarkdown())
		} else {
			fmt.Println(res.Table().Render())
		}
		if res.Regressions > 0 {
			os.Exit(1)
		}
		return
	}
	markdown := *format == "md"
	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "rumba-bench: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}

	if markdown {
		renderMode = "md"
	}
	sizes := experiments.FullSizes()
	if *reduced {
		sizes = experiments.ReducedSizes()
	}
	ctx := experiments.NewContext(sizes)

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
		// Train every benchmark's artifacts up front, in parallel.
		if err := ctx.PrepareAll(nil); err != nil {
			fmt.Fprintln(os.Stderr, "rumba-bench:", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		run, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "rumba-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		out, err := run(ctx, *benchmark)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rumba-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
