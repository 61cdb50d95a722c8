package analyzers_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

var allowNameRE = regexp.MustCompile(`^//simlint:allow\s+(\S+)`)

// TestAllowsNameLiveAnalyzers fails on any //simlint:allow in the
// module's non-test sources that names an analyzer outside the suite:
// such a suppression silences nothing, so a merged or renamed analyzer
// would leave the construct it once excused unpoliced and unexplained.
func TestAllowsNameLiveAnalyzers(t *testing.T) {
	live := map[string]bool{}
	for _, a := range analyzers.All {
		live[a.Name] = true
	}
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := allowNameRE.FindStringSubmatch(c.Text); m != nil && !live[m[1]] {
					t.Errorf("%s: //simlint:allow names %q, which is not in analyzers.All", fset.Position(c.Pos()), m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d files under %s; walk is broken", files, moduleDir)
	}
}
