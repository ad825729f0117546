package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Dir     string // absolute directory
	RelPath string // directory relative to the module root ("" = root)
	Zone    Zone
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Refs    *Refs // module-wide reference index, shared by every package Load returns
}

// ModuleRoot walks upward from dir to the directory holding go.mod.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Load resolves the given package patterns against the module rooted at
// or above dir and returns every matched package parsed and
// type-checked. Patterns follow the go tool's shape: "./..." (all
// packages), "./sub/..." (a subtree), or "./sub" (one directory).
// Directories named testdata or vendor, and directories whose name
// starts with "." or "_", are skipped — exactly the dirs the go tool
// ignores, which is what keeps the seeded-violation fixtures under
// internal/analysis/testdata out of the repo-wide run.
//
// Every package of the module is loaded whatever the patterns, so that
// the reference index deadlint judges against is module-wide; only the
// packages the patterns match are returned.
func Load(dir string, patterns []string) ([]*Package, error) {
	root, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}
	all, err := expand(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, d := range dirs {
		want[d] = true
	}
	fset := token.NewFileSet()
	// One source importer shared across every target package: it
	// type-checks dependencies from source and caches them, so the
	// module's internal packages are checked once, not once per
	// importer.
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs, module []*Package
	for _, d := range all {
		pkg, err := loadDir(fset, imp, root, modPath, d)
		if err != nil {
			// Even a package the patterns did not ask for: its lost
			// references would turn into false deadlint findings.
			return nil, err
		}
		if pkg == nil {
			continue
		}
		module = append(module, pkg)
		if want[d] {
			pkgs = append(pkgs, pkg)
		}
	}
	refs := NewRefs(module)
	for _, pkg := range pkgs {
		pkg.Refs = refs
	}
	return pkgs, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module path", root)
}

// expand turns patterns into a sorted list of absolute package dirs.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadDir parses and type-checks one directory; returns (nil, nil) if
// it holds no non-test Go files.
func loadDir(fset *token.FileSet, imp types.Importer, root, modPath, dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil, nil
		}
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	path := modPath
	if rel != "" {
		path += "/" + rel
	}
	return Check(fset, imp, dir, path, rel, files)
}

// Check type-checks the parsed files as one package with import path
// path, rooted at rel, and wraps them as a Package. Split out of
// loadDir so the fixture harness can load testdata packages under an
// assumed zone path.
func Check(fset *token.FileSet, imp types.Importer, dir, path, rel string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n  %s", dir, strings.Join(typeErrs, "\n  "))
	}
	return &Package{
		Dir:     dir,
		RelPath: rel,
		Zone:    ZoneOf(rel),
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
