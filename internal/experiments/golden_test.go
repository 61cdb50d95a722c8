package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenProfile runs the golden experiments with a parallel pool: the
// checked-in bytes were produced with Workers=4, so any nondeterminism
// introduced into the runner shows up as a golden diff. It is pinned to
// the Bench scale (not testProfile) so -short runs compare against the
// same bytes.
func goldenProfile() Profile {
	p := Bench()
	p.Name = "test"
	p.Workers = 4
	return p
}

// checkGolden compares rendered experiment text against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run TestGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// renderArtifact runs the registry entry that renders name and returns
// that artifact's text: the path cmd/reproduce takes.
func renderArtifact(t *testing.T, name string, p Profile, seed int64) string {
	t.Helper()
	for _, c := range Campaigns {
		if i := slices.Index(c.Names, name); i >= 0 {
			rs, err := c.Run(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			return rs[i].Render()
		}
	}
	t.Fatalf("no campaign renders %q", name)
	return ""
}

func TestGoldenFig1CCDF(t *testing.T) {
	checkGolden(t, "fig1", renderArtifact(t, "fig1", goldenProfile(), 1))
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1", renderArtifact(t, "table1", goldenProfile(), 1))
}

func TestGoldenFig6TileRatios(t *testing.T) {
	r, err := Fig6MILCTileRatios(goldenProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6", r.Render())
}
