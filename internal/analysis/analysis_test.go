package analysis

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases maps each golden fixture under testdata/src to the
// analyzer it exercises and the module-relative package path whose zone
// it is checked under. Every fixture seeds at least one violation the
// analyzer must catch (asserted by `// want "substr"` comments) and at
// least one negative case that must stay silent.
var fixtureCases = []struct {
	dir      string
	analyzer *Analyzer
	zone     string
}{
	{"detlint", DetLint, "internal/fixture"},
	{"detlint_blessed", DetLint, "internal/runner"},
	{"detlint_edge", DetLint, "internal/fixture"},
	{"maporder", MapOrder, "internal/fixture"},
	{"errlint", ErrLint, "cmd/fixture"},
	{"seedlint", SeedLint, "internal/fixture"},
	{"deadlint", DeadLint, "internal/fixture"},
}

func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg := loadFixture(t, dir, tc.zone)
			diags := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			diffWants(t, dir, diags)
		})
	}
}

// One fileset+importer shared by every fixture load: the source
// importer caches type-checked dependencies, so the stdlib packages the
// fixtures import are checked once per test run, not once per fixture.
var (
	fixtureFset = token.NewFileSet()
	fixtureImp  = importer.ForCompiler(fixtureFset, "source", nil)
)

// loadFixture parses and type-checks one testdata package under the
// given assumed zone path.
func loadFixture(t *testing.T, dir, zone string) *Package {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := fixtureFset
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := Check(fset, fixtureImp, dir, dir, zone, files)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Refs = NewRefs([]*Package{pkg})
	return pkg
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// diffWants compares reported diagnostics against the fixture's
// `// want "substr"` expectation comments: every want must be matched
// by a diagnostic on its line (message substring match), and every
// diagnostic must be claimed by a want.
func diffWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	type want struct {
		file    string
		line    int
		substr  string
		matched bool
	}
	var wants []*want
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &want{file: path, line: line, substr: m[1]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close() // opened read-only
	}
	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.File && w.line == d.Line && strings.Contains(d.Message, w.substr) {
				w.matched, claimed = true, true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.substr)
		}
	}
}

// TestZoneGating pins that analyzers are inert outside their zones: the
// detlint fixture, full of wall clocks and spawns, draws nothing when
// checked as an exempt package, and the errlint fixture's dropped
// errors draw nothing outside cmd/ and examples/.
func TestZoneGating(t *testing.T) {
	det := loadFixture(t, filepath.Join("testdata", "src", "detlint"), "internal/profiling")
	if diags := Run([]*Package{det}, []*Analyzer{DetLint, MapOrder, SeedLint}); len(diags) > 0 {
		t.Errorf("exempt zone drew %d diagnostics, want 0; first: %s", len(diags), diags[0])
	}
	errf := loadFixture(t, filepath.Join("testdata", "src", "errlint"), "internal/fixture")
	if diags := Run([]*Package{errf}, []*Analyzer{ErrLint}); len(diags) > 0 {
		t.Errorf("errlint outside cmd/ drew %d diagnostics, want 0; first: %s", len(diags), diags[0])
	}
	for _, zone := range []string{"internal/simtest", "cmd/fixture", ""} {
		dead := loadFixture(t, filepath.Join("testdata", "src", "deadlint"), zone)
		if diags := Run([]*Package{dead}, []*Analyzer{DeadLint}); len(diags) > 0 {
			t.Errorf("deadlint in %q drew %d diagnostics, want 0; first: %s", zone, len(diags), diags[0])
		}
	}
}

func TestZoneOf(t *testing.T) {
	cases := []struct {
		rel  string
		det  bool
		cmd  bool
		goOK bool
		dead bool
	}{
		{"", true, false, false, false},
		{"internal/schedcore", true, false, false, true},
		{"internal/online", true, false, false, true},
		{"internal/dist", true, false, false, true},
		{"internal/adaptive", true, false, false, true},
		{"internal/runner", true, false, true, true},
		{"internal/durable", true, true, false, true},
		{"internal/faultfs", true, true, false, false},
		{"internal/simref", true, false, false, false},
		{"internal/simtest", true, false, false, false},
		{"internal/telemetry", true, true, false, true},
		{"internal/profiling", false, false, false, true},
		{"internal/analysis", false, false, false, true},
		{"cmd/schedd", false, true, false, false},
		{"cmd/genschedvet", false, true, false, false},
		{"examples/quickstart", false, true, false, false},
	}
	for _, c := range cases {
		z := ZoneOf(c.rel)
		if z.Deterministic() != c.det || z.Cmd() != c.cmd || z.GoroutineBlessed() != c.goOK || z.DeadChecked() != c.dead {
			t.Errorf("ZoneOf(%q) = det %v, cmd %v, goroutines %v, dead %v; want %v, %v, %v, %v",
				c.rel, z.Deterministic(), z.Cmd(), z.GoroutineBlessed(), z.DeadChecked(), c.det, c.cmd, c.goOK, c.dead)
		}
	}
}

// TestRepoClean is the self-gate: the analyzer suite must exit clean on
// the repository's own tree, so every contract the suite enforces holds
// everywhere, and CI's `go run ./cmd/genschedvet ./...` step matches.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; the non-short run and the genschedvet CI gate cover it")
	}
	pkgs, err := Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages — the walker is missing the tree", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestDeadLintCountsModuleWide pins that deadlint judges a package
// against references from the whole module, not just the packages asked
// for: internal/sim's exported API is called from other packages only,
// so checking it alone must stay silent.
func TestDeadLintCountsModuleWide(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; the non-short run covers it")
	}
	pkgs, err := Load(".", []string{"./internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].RelPath != "internal/sim" {
		t.Fatalf("loaded %d packages for one pattern", len(pkgs))
	}
	for _, d := range Run(pkgs, []*Analyzer{DeadLint}) {
		t.Errorf("%s", d)
	}
	// The index the package was judged against must be module-wide:
	// without it, sim.RunAveBsld — called only from other packages — is
	// dead.
	local := *pkgs[0]
	local.Refs = NewRefs([]*Package{&local})
	var sawRun bool
	for _, d := range Run([]*Package{&local}, []*Analyzer{DeadLint}) {
		sawRun = sawRun || strings.Contains(d.Message, "func RunAveBsld ")
	}
	if !sawRun {
		t.Error("judged against its own references only, internal/sim still kept sim.RunAveBsld alive; the module-wide check proves nothing")
	}
}
