package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
)

// BreakdownRun is one run's stacked runtime decomposition (the paper's
// Figs. 5 and 8): compute plus the three dominant MPI interfaces plus the
// rest, averaged per rank.
type BreakdownRun struct {
	Mode    routing.Mode
	Total   float64
	Compute float64
	Parts   map[string]float64 // dominant calls
	Other   float64
}

// BreakdownResult holds per-run decompositions for one app.
type BreakdownResult struct {
	App      string
	Figure   string
	Dominant []string
	Runs     []BreakdownRun
}

// breakdownFromSamples converts production samples into stacked
// decompositions using the app-wide dominant calls. It reads the compact
// Reduced digest (per-call times are integer sim.Time there, so the
// numbers are identical to what the full profile produced).
func breakdownFromSamples(app, figure string, dominant []string, samples []Sample) *BreakdownResult {
	res := &BreakdownResult{App: app, Figure: figure, Dominant: dominant}
	for _, s := range samples {
		if s.App != app {
			continue
		}
		d := s.Reduced
		ranks := float64(d.Ranks)
		run := BreakdownRun{
			Mode:    s.Mode,
			Total:   s.RuntimeSec,
			Compute: d.ComputeTime.Seconds() / ranks,
			Parts:   map[string]float64{},
		}
		var accounted sim.Time
		for _, call := range dominant {
			if st, ok := d.CallTime[call]; ok {
				run.Parts[call] = st.Seconds() / ranks
				accounted += st
			}
		}
		run.Other = (d.MPITime - accounted).Seconds() / ranks
		res.Runs = append(res.Runs, run)
	}
	return res
}

// Fig5MILCBreakdown reproduces the paper's Fig. 5: MILC runtime split into
// Compute, MPI_Allreduce, MPI_Wait(all), MPI_Isend and other MPI, one bar
// per production run, AD0 vs AD3.
func Fig5MILCBreakdown(p Profile, seed int64) (*BreakdownResult, error) {
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	samples, err := p.SamplesOn(context.Background(), mp.machines, milcApp(),
		p.NodesMedium, []routing.Mode{routing.AD0, routing.AD3},
		core.DefaultBackground(), seed)
	if err != nil {
		return nil, err
	}
	return breakdownFromSamples("MILC", "Fig. 5",
		[]string{"MPI_Allreduce", "MPI_Waitall", "MPI_Isend"}, samples), nil
}

// Render prints one stacked bar per run.
func (r *BreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s runtime decomposition per run (seconds, per-rank mean)\n", r.Figure, r.App)
	header := fmt.Sprintf("%-5s %-9s %-9s", "mode", "total", "compute")
	for _, c := range r.Dominant {
		header += fmt.Sprintf(" %-13s", strings.TrimPrefix(c, "MPI_"))
	}
	fmt.Fprintf(&b, "%s %-9s\n", header, "otherMPI")
	for _, run := range r.Runs {
		row := fmt.Sprintf("%-5s %-9.4f %-9.4f", run.Mode, run.Total, run.Compute)
		for _, c := range r.Dominant {
			row += fmt.Sprintf(" %-13.4f", run.Parts[c])
		}
		fmt.Fprintf(&b, "%s %-9.4f\n", row, run.Other)
	}
	// Mode-level MPI means: the paper's claim is that the MPI share
	// shrinks under AD3.
	sums := map[routing.Mode][]float64{}
	for _, run := range r.Runs {
		mpiTotal := run.Other
		for _, v := range run.Parts {
			mpiTotal += v
		}
		sums[run.Mode] = append(sums[run.Mode], mpiTotal)
	}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		if vs := sums[mode]; len(vs) > 0 {
			mean := 0.0
			for _, v := range vs {
				mean += v
			}
			fmt.Fprintf(&b, "mean MPI time %s: %.4fs\n", mode, mean/float64(len(vs)))
		}
	}
	return b.String()
}

// Fig5FromSamples derives the Fig. 5 decomposition from existing samples
// (e.g. Table II's campaign).
func Fig5FromSamples(samples []Sample) *BreakdownResult {
	return breakdownFromSamples("MILC", "Fig. 5",
		[]string{"MPI_Allreduce", "MPI_Waitall", "MPI_Isend"}, samples)
}
