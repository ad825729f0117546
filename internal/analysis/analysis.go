// Package analysis is gensched's project-specific static-analysis
// driver: a pure-stdlib (go/ast, go/parser, go/token, go/types) harness
// that loads the module's packages, type-checks them, and runs the
// determinism-and-discipline analyzers over every file. It exists
// because the repository's guarantees — bit-identical batch/online/
// adaptive replays, worker-count invariance, seed-splitting discipline —
// are structural properties of the source, and the differential tests
// that pin them only catch violations after they ship. The analyzers
// reject them by construction.
//
// The driver is deliberately self-contained: it walks package
// directories itself, resolves imports with the stdlib source importer,
// and depends on nothing outside the standard library, so `go run
// ./cmd/genschedvet ./...` works on a bare toolchain and in CI with no
// extra modules.
//
// Escape hatches are explicit and audited: a violating line may carry a
// `//gensched:allow <analyzer> <justification>` comment (same line or
// the line above), and map iteration in a deterministic zone may carry
// `//gensched:orderinvariant <justification>`. A directive without a
// justification is itself a diagnostic — the annotation IS the audit
// trail.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, addressable as file:line:col.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the go-vet-style human form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{DetLint, MapOrder, ErrLint, SeedLint, DeadLint}
}

// Pass carries one type-checked package through one analyzer. Analyzers
// call Reportf for findings and Allowed/OrderInvariant to honor the
// escape-hatch directives.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// RelPath is the package directory relative to the module root
	// ("" for the root package, "internal/sim", "cmd/schedd", ...).
	// Zone membership is decided from it.
	RelPath string

	// Zone is the resolved discipline zone for RelPath (see zones.go).
	Zone Zone

	// Refs indexes what the module's non-test files reference; deadlint
	// reads it.
	Refs *Refs

	directives map[string][]directive // file name -> sorted by line
	report     func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //gensched:NAME comment.
type directive struct {
	line int    // line the comment appears on
	name string // "allow", "orderinvariant", ...
	args string // remainder of the comment, trimmed
}

// DirectivePrefix introduces every escape-hatch comment.
const DirectivePrefix = "//gensched:"

// parseDirectives indexes every //gensched: comment in the file by line
// so directive lookup during the walk is O(log n).
func parseDirectives(fset *token.FileSet, file *ast.File) []directive {
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, DirectivePrefix)
			name, args, _ := strings.Cut(rest, " ")
			out = append(out, directive{
				line: fset.Position(c.Pos()).Line,
				name: strings.TrimSpace(name),
				args: strings.TrimSpace(args),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

// directiveAt finds a directive with the given name on the line of pos
// or the line directly above it — the two placements the policy allows,
// so a justification always sits next to the code it excuses.
func (p *Pass) directiveAt(pos token.Pos, name string) (directive, bool) {
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.name != name {
			continue
		}
		if d.line == position.Line || d.line == position.Line-1 {
			return d, true
		}
	}
	return directive{}, false
}

// Allowed reports whether pos carries a `//gensched:allow <analyzer>
// <justification>` escape hatch for the running analyzer. An allow
// without a justification does not excuse anything; the analyzer
// reports it as its own violation so the audit trail cannot erode.
func (p *Pass) Allowed(pos token.Pos) bool {
	d, ok := p.directiveAt(pos, "allow")
	if !ok {
		return false
	}
	target, why, _ := strings.Cut(d.args, " ")
	if target != p.Analyzer.Name {
		return false
	}
	if strings.TrimSpace(why) == "" {
		p.Reportf(pos, "gensched:allow %s without a justification — state why the exception is sound", p.Analyzer.Name)
		return true // suppress the underlying finding; the empty hatch is the finding
	}
	return true
}

// OrderInvariant reports whether pos carries a justified
// `//gensched:orderinvariant <why>` annotation (maporder's dedicated
// escape hatch). Like Allowed, an empty justification is a violation.
func (p *Pass) OrderInvariant(pos token.Pos) bool {
	d, ok := p.directiveAt(pos, "orderinvariant")
	if !ok {
		return false
	}
	if d.args == "" {
		p.Reportf(pos, "gensched:orderinvariant without a justification — state why iteration order cannot leak into output")
		return true
	}
	return true
}

// Run executes every analyzer over every loaded package and returns the
// findings sorted by file, line, column, analyzer — a stable order for
// diffing and for the fixture harness.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		directives := make(map[string][]directive, len(pkg.Files))
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			directives[name] = parseDirectives(pkg.Fset, f)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				RelPath:    pkg.RelPath,
				Zone:       pkg.Zone,
				Refs:       pkg.Refs,
				directives: directives,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
