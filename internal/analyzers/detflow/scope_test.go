package detflow_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/detflow"
)

// reachableOutsideScope lists the module packages that are reachable
// from output sinks but deliberately NOT in detflow.Scope: rendering
// and aggregation layers where the map-order rules on sink-reachable
// functions are the right (and sufficient) determinism gate, and the
// simulation-state rules (wall clock, global RNG, goroutines) do not
// apply. Every entry carries its justification; a stale entry (no
// longer reachable) fails the test so the list cannot rot.
var reachableOutsideScope = map[string]string{
	"internal/autoperf":    "digest/report layer feeding figure and service renderers",
	"internal/experiments": "campaign runner: builds and writes figures and tables",
	"internal/ldms":        "sampler CSV export writes rendered rows",
	"internal/parallel":    "worker runner: merge callbacks execute under renderers",
	"internal/placement":   "rank-placement policies execute under campaign renderers",
	"internal/service":     "HTTP handlers and /metrics render response bytes",
	"internal/stats":       "aggregators are folded directly into rendered tables",
	"internal/topology":    "topology names appear in rendered artifact headers",
	"internal/viz":         "figure/table renderers are sink roots themselves (ExtraSinks)",
}

// TestScopeDrift ties detflow's hand-maintained Scope to its computed
// sink-reachability over the real module. The invariant: every package
// holding a function statically reachable from an output sink is either
// in Scope (simulation state, every rule applies package-wide) or in
// reachableOutsideScope with a justification. A new package showing up
// here means a conscious choice: extend Scope, or document why the
// reachable-function map-order rules suffice.
func TestScopeDrift(t *testing.T) {
	moduleDir, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	roots, err := modulePackages(moduleDir, "repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) < 10 {
		t.Fatalf("found only %d module packages under %s; walk is broken", len(roots), moduleDir)
	}
	m, err := analysis.LoadModule(moduleDir, "repro", roots)
	if err != nil {
		t.Fatal(err)
	}

	// ExtraSinks entries must resolve to real functions, or a rename
	// silently un-polices a renderer.
	resolved := map[string]bool{}
	for _, fn := range detflow.SinkRoots(m) {
		resolved[fn.Name()] = true
	}
	for _, entry := range detflow.ExtraSinks {
		name := entry[strings.LastIndex(entry, ".")+1:]
		if !resolved[name] {
			t.Errorf("ExtraSinks entry %q matched no function in the module (renamed or deleted?)", entry)
		}
	}

	reachable := detflow.ReachablePackages(m)
	if len(reachable) == 0 {
		t.Fatal("no sink-reachable packages: sink detection is broken")
	}
	seen := map[string]bool{}
	for _, pkg := range reachable {
		seen[pkg] = true
		if detflow.InScope("repro/" + pkg) {
			continue // simulation state
		}
		if _, ok := reachableOutsideScope[pkg]; ok {
			continue // justified rendering layer
		}
		t.Errorf("package %q is reachable from output sinks but neither in Scope nor justified:\n"+
			"  add it to detflow.Scope (simulation state) or to reachableOutsideScope with a justification",
			pkg)
	}
	for pkg := range reachableOutsideScope {
		if !seen[pkg] {
			t.Errorf("reachableOutsideScope entry %q is stale: no longer reachable from any output sink", pkg)
		}
	}

	// Renames/deletions in Scope must not rot silently either: every
	// entry names a package that still exists in the module.
	for _, scoped := range detflow.Scope {
		if m.Package("repro/"+scoped) == nil {
			t.Errorf("detflow.Scope entry %q names a package that no longer exists", scoped)
		}
	}
}

// modulePackages walks the module tree and returns every package import
// path holding non-test Go files, mirroring cmd/simlint's expansion.
func modulePackages(moduleDir, modulePath string) ([]string, error) {
	var roots []string
	err := filepath.WalkDir(moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != moduleDir &&
			(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			rel, err := filepath.Rel(moduleDir, path)
			if err != nil {
				return err
			}
			if rel == "." {
				roots = append(roots, modulePath)
			} else {
				roots = append(roots, modulePath+"/"+filepath.ToSlash(rel))
			}
			break
		}
		return nil
	})
	return roots, err
}
