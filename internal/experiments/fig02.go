package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stats"
)

// ModeStats summarizes one routing mode's runtime sample.
type ModeStats struct {
	Mode routing.Mode
	N    int
	Mean float64
	Std  float64
	P95  float64
	PDF  *stats.Histogram
}

// modeStats computes the summary, applying the paper's ±3σ outlier
// filter to the aggregated runtimes.
func modeStats(mode routing.Mode, values *stats.Agg, lo, hi float64, bins int) ModeStats {
	filtered := values.FilterOutliers(3)
	return ModeStats{
		Mode: mode, N: filtered.Count(),
		Mean: filtered.Mean(), Std: filtered.Std(),
		P95: filtered.Percentile(95),
		PDF: filtered.Hist(lo, hi, bins),
	}
}

// Fig2Result reproduces the paper's Fig. 2: runtime probability densities
// for MILC and MILCREORDER at the medium job size under AD0 vs AD3 in
// production conditions.
type Fig2Result struct {
	Nodes   int
	PerApp  map[string]map[routing.Mode]ModeStats
	Samples []Sample
}

// Fig2MILCRuntimePDF runs the production campaigns and builds the PDFs.
// Runtimes fold into per-mode aggregates as the runs stream; the retained
// samples are compact (no Reports).
func Fig2MILCRuntimePDF(p Profile, seed int64) (*Fig2Result, error) {
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Nodes: p.NodesMedium, PerApp: map[string]map[routing.Mode]ModeStats{}}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	for _, a := range []apps.App{apps.MILC{}, apps.MILC{Reorder: true}} {
		all := stats.NewAgg()
		perModeAgg := map[routing.Mode]*stats.Agg{}
		err := productionReduce(context.Background(), mp, p, a, p.NodesMedium,
			modes, core.DefaultBackground(), seed,
			func(idx int, s *Sample) {
				res.Samples = append(res.Samples, s.Compact())
				all.Add(s.RuntimeSec)
				agg := perModeAgg[s.Mode]
				if agg == nil {
					agg = stats.NewAgg()
					perModeAgg[s.Mode] = agg
				}
				agg.Add(s.RuntimeSec)
			})
		if err != nil {
			return nil, err
		}
		lo, hi := all.Min(), all.Max()
		perMode := map[routing.Mode]ModeStats{}
		for mode, agg := range perModeAgg {
			perMode[mode] = modeStats(mode, agg, lo, hi, 10)
		}
		res.PerApp[a.Name()] = perMode
	}
	return res, nil
}

// Render prints mean / σ / P95 and the density series per app per mode.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — MILC & MILCREORDER runtime PDFs (%d nodes, production)\n", r.Nodes)
	for _, app := range []string{"MILC", "MILCREORDER"} {
		perMode, ok := r.PerApp[app]
		if !ok {
			continue
		}
		for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
			ms := perMode[mode]
			fmt.Fprintf(&b, "%-13s %s n=%-3d mean=%.4fs std=%.4fs p95=%.4fs\n",
				app, mode, ms.N, ms.Mean, ms.Std, ms.P95)
		}
		ad0, ad3 := perMode[routing.AD0], perMode[routing.AD3]
		if ad0.Mean > 0 {
			fmt.Fprintf(&b, "%-13s AD3 mean improvement over AD0: %.1f%% (paper: ~11%%)\n",
				app, 100*(ad0.Mean-ad3.Mean)/ad0.Mean)
		}
		// Density series (bin center, AD0 pdf, AD3 pdf).
		if ad0.PDF != nil && ad3.PDF != nil {
			fmt.Fprintf(&b, "  %-10s %-10s %-10s\n", "runtime", "pdf(AD0)", "pdf(AD3)")
			for i := range ad0.PDF.Counts {
				fmt.Fprintf(&b, "  %-10.4f %-10.3f %-10.3f\n",
					ad0.PDF.BinCenter(i), ad0.PDF.PDF(i), ad3.PDF.PDF(i))
			}
		}
	}
	return b.String()
}

// Fig2FromSamples derives the Fig. 2 PDFs from an existing sample set
// (e.g. Table II's runs) instead of launching a fresh campaign. Compact
// samples suffice — only runtimes are consumed.
func Fig2FromSamples(nodes int, samples []Sample) *Fig2Result {
	res := &Fig2Result{Nodes: nodes, PerApp: map[string]map[routing.Mode]ModeStats{}}
	perApp := map[string][]Sample{}
	for _, s := range samples {
		if s.App == "MILC" || s.App == "MILCREORDER" {
			perApp[s.App] = append(perApp[s.App], s)
			res.Samples = append(res.Samples, s)
		}
	}
	for app, ss := range perApp {
		lo, hi := stats.MinMax(runtimes(ss))
		perMode := map[routing.Mode]ModeStats{}
		for mode, ms := range byMode(ss) {
			agg := stats.NewAgg()
			agg.AddAll(runtimes(ms))
			perMode[mode] = modeStats(mode, agg, lo, hi, 10)
		}
		res.PerApp[app] = perMode
	}
	return res
}
