package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repoRoot is the module root, two levels above this package.
var repoRoot = filepath.Join("..", "..")

var (
	expOnce sync.Once
	expData *ExportData
	expErr  error
)

// loadExports builds the export map once per test binary; every fixture
// package resolves its imports (including module-internal ones) from it.
func loadExports(t *testing.T) *ExportData {
	t.Helper()
	expOnce.Do(func() {
		expData, expErr = LoadExports(repoRoot, "./...")
	})
	if expErr != nil {
		t.Fatalf("loading export data: %v", expErr)
	}
	return expData
}

// LoadExports runs the go list walk alone and returns the export map
// without type-checking any matched package: all the fixture tests
// need, at a fraction of Load's cost.
func LoadExports(dir string, patterns ...string) (*ExportData, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exp := &ExportData{files: map[string]string{}}
	for _, p := range listed {
		if p.Export != "" {
			exp.files[p.ImportPath] = p.Export
		}
	}
	return exp, nil
}

// LoadFixture type-checks the single package rooted at dir (every .go
// file in it, including _test.go-named fixtures), for the analyzer
// tests.  The synthetic import path keeps fixture packages out of the
// module namespace.
func LoadFixture(dir string, exp *ExportData) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	return TypeCheck("noblintfixture/"+filepath.Base(dir), dir, files, exp)
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type wantKey struct {
	file string
	line int
}

// parseWants collects the fixture's `// want "regex"` expectations,
// keyed by the line the comment sits on.
func parseWants(t *testing.T, pkgs []*Package) map[wantKey]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, g := range f.Comments {
				for _, c := range g.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants[wantKey{pos.Filename, pos.Line}] = re
				}
			}
		}
	}
	return wants
}

// checkWants runs the analyzer over pkgs through the same suppression
// path as noblint and matches the diagnostics against the fixture's want
// comments — both directions: no unexpected diagnostic, no unmatched
// expectation.
func checkWants(t *testing.T, pkgs []*Package, a *Analyzer) {
	t.Helper()
	wants := parseWants(t, pkgs)
	if len(wants) == 0 {
		t.Fatalf("fixture for %s declares no want expectations", a.Name)
	}
	for _, d := range RunAnalyzers(pkgs, []*Analyzer{a}) {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		if re, ok := wants[key]; ok && re.MatchString(d.Message) {
			delete(wants, key)
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for k, re := range wants {
		t.Errorf("%s:%d: want diagnostic matching %q, got none", k.file, k.line, re)
	}
}

// runFixture loads testdata/<analyzer name> as one package and checks
// the analyzer's diagnostics against its want comments.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	exp := loadExports(t)
	pkg, err := LoadFixture(filepath.Join("testdata", a.Name), exp)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	checkWants(t, []*Package{pkg}, a)
}

func TestMapOrderFixture(t *testing.T) { runFixture(t, MapOrderAnalyzer) }
func TestNilProbeFixture(t *testing.T) { runFixture(t, NilProbeAnalyzer) }
func TestCtxFlowFixture(t *testing.T)  { runFixture(t, CtxFlowAnalyzer) }
func TestSinkOwnFixture(t *testing.T)  { runFixture(t, SinkOwnAnalyzer) }
func TestRegInitFixture(t *testing.T)  { runFixture(t, RegInitAnalyzer) }
func TestHotAllocFixture(t *testing.T) { runFixture(t, HotAllocAnalyzer) }

// TestDeadExportFixture loads testdata/deadexport as the module it is,
// as noblint loads the repository: uses come from the module's non-test
// files and from the module nested under it (user/, standing in for
// bench/).
func TestDeadExportFixture(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "deadexport"), "./...")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	checkWants(t, pkgs, DeadExportAnalyzer)
}

// TestRepoIsLintClean is the meta-test backing CI's lint job: the full
// suite over the whole module must produce zero diagnostics.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis skipped in -short mode")
	}
	pkgs, err := Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern ./... seems wrong", len(pkgs))
	}
	for _, d := range RunAnalyzers(pkgs, Analyzers()) {
		t.Errorf("noblint: %s", d)
	}
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		got, err := AnalyzerByName(a.Name)
		if err != nil || got != a {
			t.Errorf("AnalyzerByName(%q) = %v, %v", a.Name, got, err)
		}
	}
	if _, err := AnalyzerByName("nope"); err == nil {
		t.Error("AnalyzerByName(nope) succeeded; want error listing the suite")
	}
}

func TestNolintParsing(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"//nolint:maporder", []string{"maporder"}},
		{"//nolint:maporder,hotalloc // reason", []string{"maporder", "hotalloc"}},
		{"//nolint:all // reason", []string{"all"}},
		{"// nolint:maporder", nil}, // spaced: not a directive
		{"//nolint", nil},           // bare nolint without names is ignored
		{"// a comment", nil},
	}
	for _, c := range cases {
		got := nolintNames(c.in)
		if len(got) != len(c.want) {
			t.Errorf("nolintNames(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("nolintNames(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}
