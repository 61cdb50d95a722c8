// Command simlint runs the repository's custom static-analysis suite
// (resetcheck, hotcall, detflow, sharecheck — see DESIGN.md "Static
// invariants") over the module, mirroring a x/tools multichecker:
//
//	go run ./cmd/simlint ./...
//
// Unlike a per-package checker, simlint loads every requested package
// (plus its module-internal dependencies) into one driver run, builds
// the static call graph across them, and lets analyzers exchange
// per-function facts — the interprocedural checks (transitive hot-path
// allocation, output-order taint, worker isolation) need the whole
// module in view.
//
// It prints one line per finding — or one JSON object per line with
// -json, for CI to turn into per-file annotations — and exits nonzero
// when any survive their //simlint:allow / //simlint:resetsafe /
// //simlint:cold suppressions. CI treats a nonzero exit as a build
// failure, which is the point: the invariants these analyzers enforce
// (explicit RNG streams, complete Reset coverage, allocation-free hot
// paths, deterministic output rendering, per-worker machine ownership)
// fail silently at runtime but loudly here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [packages]\n\npatterns: ./... style walks, or package directories\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modDir, modPath, err := findModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	roots := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		importPath, err := dirImportPath(modDir, modPath, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		roots = append(roots, importPath)
	}

	mod, err := analysis.LoadModule(modDir, modPath, roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := mod.Run(analyzers.All)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		if *jsonOut {
			enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Column   int    `json:"column"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			continue
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", name, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModule walks up from dir to the enclosing go.mod, returning the
// module directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// expand resolves CLI patterns to package directories containing Go
// files. "dir/..." walks recursively, skipping testdata, hidden, and
// underscore directories (the go tool's rules).
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, p := range patterns {
		if base, ok := strings.CutSuffix(p, "/..."); ok {
			if base == "." || base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(p)
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		return true
	}
	return false
}

// dirImportPath maps a package directory to its import path inside the
// module.
func dirImportPath(modDir, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
