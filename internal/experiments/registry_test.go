package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestCampaignRegistryNames pins the registry that drives cmd/reproduce:
// the artifact names in output order, the t2family alias, and no name or
// alias used twice (nor "all", which selects everything).
func TestCampaignRegistryNames(t *testing.T) {
	want := []string{"fig1", "table1", "table2", "fig2", "fig5", "fig6",
		"fig7", "fig8", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14"}
	var names, aliases []string
	seen := map[string]bool{"all": true}
	for _, c := range Campaigns {
		keys := slices.Clone(c.Names)
		if c.Alias != "" {
			keys = append(keys, c.Alias)
			aliases = append(aliases, c.Alias)
		}
		for _, k := range keys {
			if seen[k] {
				t.Errorf("name %q used twice", k)
			}
			seen[k] = true
		}
		names = append(names, c.Names...)
		if c.Run == nil {
			t.Errorf("%v: no Run", c.Names)
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("names %v, want %v", names, want)
	}
	if !slices.Equal(aliases, []string{"t2family"}) {
		t.Errorf("aliases %v, want [t2family]", aliases)
	}
}

// TestCampaignRunRendersEveryName runs every registry entry on a shrunk
// profile with one iteration per app and checks it returns one non-empty
// renderer per name. The harnesses' numbers are checked by their own
// tests; this one pins the wiring.
func TestCampaignRunRendersEveryName(t *testing.T) {
	p := shrink(testProfile())
	for app := range p.Iterations {
		p.Iterations[app] = 1
	}
	p.Warmup = 100 * sim.Microsecond
	p.CampaignWindow = 3 * sim.Millisecond
	p.LDMSPeriod = 1 * sim.Millisecond
	for _, c := range Campaigns {
		t.Run(strings.Join(c.Names, "+"), func(t *testing.T) {
			rs, err := c.Run(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != len(c.Names) {
				t.Fatalf("%d renderers for %d names", len(rs), len(c.Names))
			}
			for i, r := range rs {
				if r == nil || r.Render() == "" {
					t.Errorf("%s: empty renderer", c.Names[i])
				}
			}
		})
	}
}
