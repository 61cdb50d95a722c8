package experiments

// Renderer produces one artifact's text.
type Renderer interface{ Render() string }

// Campaign is one entry of the reproduction registry: a run that renders
// one or more of the paper's artifacts. Artifacts derived from one shared
// campaign (the Table II family, Figs. 13/14) share one entry, so asking
// for any of them runs that campaign once.
type Campaign struct {
	// Names are the artifacts the entry renders, in output order.
	Names []string
	// Alias, when set, asks for every artifact in Names.
	Alias string
	// Run executes the campaign and returns one Renderer per name.
	Run func(p Profile, seed int64) ([]Renderer, error)
}

// Campaigns lists every artifact of the paper's evaluation in output
// order; cmd/reproduce iterates it.
var Campaigns = []Campaign{
	{Names: []string{"fig1"}, Run: func(p Profile, seed int64) ([]Renderer, error) {
		return []Renderer{Fig1JobSizes(p, seed)}, nil
	}},
	{Names: []string{"table1"}, Run: single(Table1Characterization)},
	// The Table II production campaign also feeds Figs. 2, 5, 6, 7 and 8.
	{Names: []string{"table2", "fig2", "fig5", "fig6", "fig7", "fig8"}, Alias: "t2family",
		Run: func(p Profile, seed int64) ([]Renderer, error) {
			t2, err := Table2AllApps(p, seed)
			if err != nil {
				return nil, err
			}
			return []Renderer{t2, Fig2FromSamples(t2.Nodes, t2.Samples),
				Fig5FromSamples(t2.Samples), Fig6FromTable2(t2),
				Fig7NormalizedAllApps(t2), Fig8HACCBreakdown(t2)}, nil
		}},
	{Names: []string{"fig3"}, Run: single(Fig3GroupsSpanned)},
	{Names: []string{"fig4"}, Run: single(Fig4CoriGroupsSpanned)},
	{Names: []string{"fig9"}, Run: single(Fig9ControlledAllModes)},
	{Names: []string{"fig10"}, Run: single(Fig10MILCEnsembleCounters)},
	{Names: []string{"fig11"}, Run: single(Fig11RegimeComparison)},
	{Names: []string{"fig12"}, Run: single(Fig12HACCEnsembleCounters)},
	// The Fig. 13 campaigns also collect the Fig. 14 latency samples.
	{Names: []string{"fig13", "fig14"}, Run: func(p Profile, seed int64) ([]Renderer, error) {
		f13, err := Fig13DefaultSwitch(p, seed)
		if err != nil {
			return nil, err
		}
		return []Renderer{f13, Fig14LatencyPercentiles(f13)}, nil
	}},
}

// single adapts a one-artifact harness to Campaign.Run.
func single[R Renderer](run func(Profile, int64) (R, error)) func(Profile, int64) ([]Renderer, error) {
	return func(p Profile, seed int64) ([]Renderer, error) {
		r, err := run(p, seed)
		if err != nil {
			return nil, err
		}
		return []Renderer{r}, nil
	}
}
