package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stats"
)

// GroupsPoint is one run plotted on the groups-spanned axis.
type GroupsPoint struct {
	Groups     int
	Mode       routing.Mode
	Normalized float64 // Z-score within (app, size), pooled across modes
}

// Fig3Result reproduces the paper's Fig. 3: MILC and MILCREORDER
// normalized runtimes at three job sizes, ordered by the number of
// dragonfly groups the placement spans, AD0 vs AD3.
type Fig3Result struct {
	Machine string
	// Points[app][nodes] lists the per-run normalized samples.
	Points map[string]map[int][]GroupsPoint
	// MeanImprovement[app][nodes] is AD3's mean runtime improvement.
	MeanImprovement map[string]map[int]float64
	Sizes           []int
	Apps            []string
}

// Fig3GroupsSpanned runs the production campaigns at all three sizes.
func Fig3GroupsSpanned(p Profile, seed int64) (*Fig3Result, error) {
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	return groupsSpannedStudy(mp, "Theta", p,
		[]apps.App{apps.MILC{}, apps.MILC{Reorder: true}},
		[]int{p.NodesSmall, p.NodesMedium, p.NodesLarge}, seed)
}

// groupsSpannedStudy is shared with Fig. 4 (Cori).
func groupsSpannedStudy(mp *machinePool, machine string, p Profile,
	appList []apps.App, sizes []int, seed int64) (*Fig3Result, error) {

	res := &Fig3Result{
		Machine:         machine,
		Points:          map[string]map[int][]GroupsPoint{},
		MeanImprovement: map[string]map[int]float64{},
		Sizes:           sizes,
	}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	for _, a := range appList {
		res.Apps = append(res.Apps, a.Name())
		res.Points[a.Name()] = map[int][]GroupsPoint{}
		res.MeanImprovement[a.Name()] = map[int]float64{}
		for _, nodes := range sizes {
			// Fold runtimes into the pooled and per-mode aggregates as
			// the campaign streams; only the small GroupsPoint slice is
			// retained (Normalized temporarily carries the raw runtime
			// until the pooled moments are known).
			pooled := stats.NewAgg()
			perMode := map[routing.Mode]*stats.Agg{}
			for _, m := range modes {
				perMode[m] = stats.NewAgg()
			}
			pts := make([]GroupsPoint, 0, p.Runs*len(modes))
			err := productionReduce(context.Background(), mp, p, a, nodes, modes,
				core.DefaultBackground(), seed+int64(nodes),
				func(idx int, s *Sample) {
					pooled.Add(s.RuntimeSec)
					perMode[s.Mode].Add(s.RuntimeSec)
					pts = append(pts, GroupsPoint{
						Groups: s.Groups, Mode: s.Mode, Normalized: s.RuntimeSec,
					})
				})
			if err != nil {
				return nil, err
			}
			// Z-score against the pooled mean of both modes (the
			// paper's normalization for a given job size).
			mean, std := pooled.Mean(), pooled.Std()
			for i := range pts {
				if std > 0 {
					pts[i].Normalized = (pts[i].Normalized - mean) / std
				} else {
					pts[i].Normalized = 0
				}
			}
			sort.Slice(pts, func(i, j int) bool { return pts[i].Groups < pts[j].Groups })
			res.Points[a.Name()][nodes] = pts
			res.MeanImprovement[a.Name()][nodes] =
				stats.PercentImprovementAgg(perMode[routing.AD0], perMode[routing.AD3])
		}
	}
	return res, nil
}

// Render prints per-size scatter rows ordered by groups spanned.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — normalized runtime vs groups spanned (%s)\n", r.Machine)
	for _, app := range r.Apps {
		for _, nodes := range r.Sizes {
			fmt.Fprintf(&b, "%s @ %d nodes (AD3 mean improvement %.1f%%):\n",
				app, nodes, r.MeanImprovement[app][nodes])
			for _, pt := range r.Points[app][nodes] {
				fmt.Fprintf(&b, "  groups=%-3d %-4s z=%+.2f\n", pt.Groups, pt.Mode, pt.Normalized)
			}
		}
	}
	return b.String()
}
