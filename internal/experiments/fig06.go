package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// tileAggs pools per-tile stalls-to-flits ratios per mode and class as
// mergeable online aggregates, folded in seed order during the campaign
// (the distributions cannot be rebuilt from compact samples afterwards).
type tileAggs = map[routing.Mode]map[topology.TileClass]*stats.Agg

// foldTileRatios folds one full sample's per-class tile ratios into dst.
// Must run inside the streaming fold, while s.Report is still attached.
// Every class gets an aggregate (even if empty), mirroring the report's
// LocalTileRatios keys.
func foldTileRatios(dst tileAggs, s *Sample) {
	per := dst[s.Mode]
	if per == nil {
		per = map[topology.TileClass]*stats.Agg{}
		dst[s.Mode] = per
	}
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		agg := per[class]
		if agg == nil {
			agg = stats.NewAgg()
			per[class] = agg
		}
		agg.AddAll(s.Report.LocalTileRatios[class])
	}
}

// Fig6Result reproduces the paper's Fig. 6: the stalls-to-flits ratio on
// the application's local router tiles, broken down by tile class
// (Rank3/Rank2/Rank1/Proc_req/Proc_rsp), under AD0 vs AD3.
type Fig6Result struct {
	App   string
	Nodes int
	// Ratios[mode][class] aggregates the per-tile ratios pooled over all
	// runs of that mode, in run order.
	Ratios tileAggs
}

// Fig6MILCTileRatios runs the MILC production campaign, folding the
// per-class tile counter ratios out of each AutoPerf report as it
// completes — the campaign never retains a full report.
func Fig6MILCTileRatios(p Profile, seed int64) (*Fig6Result, error) {
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{App: "MILC", Nodes: p.NodesMedium, Ratios: tileAggs{}}
	err = productionReduce(context.Background(), mp, p, milcApp(),
		p.NodesMedium, []routing.Mode{routing.AD0, routing.AD3},
		core.DefaultBackground(), seed,
		func(idx int, s *Sample) {
			foldTileRatios(res.Ratios, s)
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MeanRatio returns the mean ratio for (mode, class).
func (r *Fig6Result) MeanRatio(mode routing.Mode, class topology.TileClass) float64 {
	return r.Ratios[mode][class].Mean()
}

// Render prints the per-class ratio summary in the paper's order.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — %s stalls-to-flits ratio by tile class (%d nodes)\n", r.App, r.Nodes)
	order := []topology.TileClass{
		topology.TileRank3, topology.TileRank2, topology.TileRank1,
		topology.TileProcReq, topology.TileProcRsp,
	}
	fmt.Fprintf(&b, "%-10s %-22s %-22s\n", "tile", "AD0 mean/p95", "AD3 mean/p95")
	for _, class := range order {
		a0 := r.Ratios[routing.AD0][class]
		a3 := r.Ratios[routing.AD3][class]
		fmt.Fprintf(&b, "%-10s %-8.3f/%-13.3f %-8.3f/%-13.3f\n", class,
			a0.Mean(), a0.Percentile(95),
			a3.Mean(), a3.Percentile(95))
	}
	return b.String()
}

// Fig6FromTable2 derives the Fig. 6 result from a Table 2 campaign's
// tile aggregates (the campaign folds MILC's ratios as it streams, so
// the t2 family shares one set of runs without retaining reports).
func Fig6FromTable2(t2 *Table2Result) *Fig6Result {
	return &Fig6Result{App: "MILC", Nodes: t2.Nodes, Ratios: t2.Tiles}
}
