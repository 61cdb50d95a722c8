package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Regime labels for Fig. 11.
const (
	RegimeProduction         = "production"
	RegimeIsolated           = "isolated"
	RegimeControlledCompact  = "controlled-compact"
	RegimeControlledDisperse = "controlled-disperse"
)

// Fig11Result reproduces the paper's Fig. 11: the distribution (PDF) of
// stalls-to-flits ratios on the job's local network tiles for MILC at the
// medium size, compared across production, isolated, and controlled
// (compact / disperse ensemble) regimes, for AD0 and AD3.
type Fig11Result struct {
	Nodes int
	// Ratios[mode][regime] aggregates per-tile network-tile ratios.
	Ratios map[routing.Mode]map[string]*stats.Agg
}

// regimeAgg returns (creating if needed) one regime's aggregate.
func (r *Fig11Result) regimeAgg(mode routing.Mode, regime string) *stats.Agg {
	per := r.Ratios[mode]
	if per == nil {
		per = map[string]*stats.Agg{}
		r.Ratios[mode] = per
	}
	agg := per[regime]
	if agg == nil {
		agg = stats.NewAgg()
		per[regime] = agg
	}
	return agg
}

// Fig11RegimeComparison runs all three regimes for both modes. Within a
// mode the production campaign, the isolated runs, and the two controlled
// ensembles each fan their independent runs across the worker pool; the
// ratio aggregates fold in run order, so output matches the sequential
// sweep exactly — and no regime retains a full report past its fold.
func Fig11RegimeComparison(p Profile, seed int64) (*Fig11Result, error) {
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Nodes: p.NodesMedium, Ratios: map[routing.Mode]map[string]*stats.Agg{}}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		mode := mode

		// Production: noisy machine.
		prodAgg := res.regimeAgg(mode, RegimeProduction)
		err := productionReduce(context.Background(), mp, p, milcApp(),
			p.NodesMedium, []routing.Mode{mode}, core.DefaultBackground(), seed,
			func(idx int, s *Sample) {
				prodAgg.AddAll(networkTileRatios(s))
			})
		if err != nil {
			return nil, err
		}

		// Isolated: one job alone.
		isoAgg := res.regimeAgg(mode, RegimeIsolated)
		err = parallel.ReduceContext(context.Background(), mp.workers(), p.Runs,
			func(worker, i int) (Sample, error) {
				return isolatedSample(mp.machine(worker), p, milcApp(), p.NodesMedium,
					mode, placement.Dispersed, seed+int64(i))
			},
			func(i int, s Sample) {
				isoAgg.AddAll(networkTileRatios(&s))
			})
		if err != nil {
			return nil, err
		}

		// Controlled: ensembles of the same app, compact and disperse.
		regimes := []struct {
			regime string
			policy placement.Policy
		}{
			{RegimeControlledCompact, placement.Compact},
			{RegimeControlledDisperse, placement.Dispersed},
		}
		err = parallel.ReduceContext(context.Background(), mp.workers(), len(regimes),
			func(worker, idx int) (*core.RunResult, error) {
				return ensembleRun(mp.machine(worker), p, milcApp(), p.EnsembleMedium,
					p.NodesMedium, mode, regimes[idx].policy, seed+977, nil)
			},
			func(idx int, run *core.RunResult) {
				agg := res.regimeAgg(mode, regimes[idx].regime)
				for _, j := range run.Jobs {
					for _, class := range networkClasses {
						agg.AddAll(j.Report.LocalTileRatios[class])
					}
				}
			})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints summary statistics of each regime's ratio distribution;
// the paper's claim is that production lies between the two controlled
// bounds under AD0.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 — stalls-to-flits ratio on network tiles, MILC %d nodes\n", r.Nodes)
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		fmt.Fprintf(&b, "%s:\n", mode)
		for _, regime := range []string{
			RegimeIsolated, RegimeControlledCompact, RegimeProduction, RegimeControlledDisperse,
		} {
			ratios := r.Ratios[mode][regime]
			if ratios.Count() == 0 {
				continue
			}
			ps := ratios.Percentiles([]float64{25, 50, 75, 95})
			fmt.Fprintf(&b, "  %-20s n=%-6d mean=%-8.3f p25=%-8.3f p50=%-8.3f p75=%-8.3f p95=%-8.3f\n",
				regime, ratios.Count(), ratios.Mean(), ps[0], ps[1], ps[2], ps[3])
		}
	}
	return b.String()
}
