package main

// aa.go is the A/A harness: the same code measured twice, to show that the
// benchmark's own run-to-run noise sits inside the bounds it gates with.

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// aaRow is one workload × end-to-end metric across both sets.
type aaRow struct {
	workload string
	def      metricDef
	a, b     []float64
}

// relGap is how much worse set B's median is than set A's, as a share of
// A's median, in the metric's own direction (negative: B is better).
func relGap(def metricDef, medA, medB float64) float64 {
	if medA == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (medA - medB) / medA
	}
	return (medB - medA) / medA
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// runAA runs two interleaved sets (A B A B …) of k runs of every workload,
// a fresh seed per run, and prints per workload × end-to-end metric both
// medians, both spreads, the gap between the medians and the bound.
func runAA(ctx context.Context, cfg runConfig, k int, w io.Writer) error {
	var rows []*aaRow
	index := map[string]*aaRow{}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			r := &aaRow{workload: wl.Name, def: d}
			rows = append(rows, r)
			index[wl.Name+"/"+d.Name] = r
		}
	}
	var env envInfo
	failed := 0
	for i := 0; i < k; i++ {
		for _, set := range []string{"A", "B"} {
			for _, wl := range workloads {
				wcfg := cfg
				// Set A and set B use the same seeds, as the acceptance
				// check's two sets do.
				wcfg.seed = cfg.seed + int64(i)
				wcfg.tmpDir = filepath.Join(cfg.tmpDir, fmt.Sprintf("%s%d-%s", set, i, wl.Name))
				res, err := runWorkload(ctx, wcfg, wl.Name)
				if err != nil {
					return err
				}
				env = res.env
				failed += res.failed
				for _, d := range endToEnd {
					r := index[wl.Name+"/"+d.Name]
					if set == "A" {
						r.a = append(r.a, res.e2e[d.Name].Value)
					} else {
						r.b = append(r.b, res.e2e[d.Name].Value)
					}
				}
				fmt.Fprintf(w, "# run %s%d %s seed %d: ok_ratio %.6f\n", set, i, wl.Name, wcfg.seed, okRatio(res.attempted, res.failed))
			}
		}
	}
	env.print(w)
	fmt.Fprintf(w, "\nA/A: two interleaved sets of %d runs per workload; spread = IQR/median, gap = how much worse B's median is\n\n", k)
	fmt.Fprintf(w, "| workload | metric | unit | median A | spread A | median B | spread B | gap | bound | |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	over := 0
	for _, r := range rows {
		gap := relGap(r.def, median(r.a), median(r.b))
		flag := ""
		sa, sb := spread(r.a), spread(r.b)
		switch {
		case math.Abs(gap) > r.def.Bound || (r.def.Name != "setup_s" && math.Max(sa, sb) > r.def.Bound):
			flag = "OVER BOUND"
			over++
		case math.Abs(gap) > r.def.Bound/2 || (r.def.Name != "setup_s" && math.Max(sa, sb) > r.def.Bound/3):
			flag = "wide"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.4f | %.1f%% | %.4f | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
			r.workload, r.def.Name, r.def.Unit, median(r.a), 100*sa, median(r.b), 100*sb, 100*gap, 100*r.def.Bound, flag)
	}
	fmt.Fprintf(w, "\nraw values, in run order\n\n")
	for _, r := range rows {
		fmt.Fprintf(w, "    %s %s A=%.5g B=%.5g\n", r.workload, r.def.Name, r.a, r.b)
	}
	fmt.Fprintf(w, "\n%d failed operations over all runs; %d of %d rows over their bound\n", failed, over, len(rows))
	if failed > 0 {
		return errIncorrect
	}
	return nil
}
