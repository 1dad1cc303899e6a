package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors and CI logs.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one lint rule. Adding a rule is one file declaring a
// var of this type plus one line in registry.go and a fixture
// directory under testdata/ (see DESIGN.md §11).
type Analyzer struct {
	// Name is the rule name used in reports and ignore comments.
	Name string
	// Doc is a one-paragraph statement of the invariant.
	Doc string
	// Scope reports whether the rule applies to a package import
	// path. nil means every package.
	Scope func(pkgPath string) bool
	// SkipTests excludes _test.go files and external test packages.
	SkipTests bool
	// Prepare, when set, makes the rule whole-module: RunAnalyzers
	// calls it once with every package of the module, and each Run
	// reads the result as Pass.Prepared.
	Prepare func(fset *token.FileSet, module []*Package) any
	// Run inspects one unit, reporting findings through the pass.
	Run func(p *Pass)
}

// Pass hands one compilation unit to an analyzer.
type Pass struct {
	*Unit
	Fset *token.FileSet
	// Prepared is the analyzer's Prepare result, or nil.
	Prepared any
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// IgnorePrefix opens a suppression comment: //fslint:ignore <rule>
// <reason>. The reason is mandatory — a suppression is a reviewed
// exception, and the "why" must survive the reviewer.
const IgnorePrefix = "//fslint:ignore"

// suppression is one parsed ignore comment.
type suppression struct {
	rule string
	line int
	file string
}

// parseSuppressions scans a unit's comments for ignore directives.
// Malformed directives (no rule, or no written reason) become
// diagnostics under the reserved rule name "fslint": an ignore that
// silently failed to parse would un-suppress a finding — or worse,
// look like it suppressed one — so it must be loud.
func parseSuppressions(fset *token.FileSet, files []*ast.File) ([]suppression, []Diagnostic) {
	var sups []suppression
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Rule: "fslint", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: "malformed ignore: want \"//fslint:ignore <rule> <reason>\" — the reason is required",
					})
					continue
				}
				sups = append(sups, suppression{rule: fields[0], line: pos.Line, file: pos.Filename})
			}
		}
	}
	return sups, bad
}

// suppressed reports whether d is covered by an ignore on its own
// line or the line directly above (the two places a reviewer looks).
func suppressed(d Diagnostic, sups []suppression) bool {
	for _, s := range sups {
		if s.rule == d.Rule && s.file == d.File && (s.line == d.Line || s.line == d.Line-1) {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every unit of pkgs,
// honoring scope filters and suppression comments, and returns the
// surviving diagnostics in (file, line, col, rule) order. module is
// every package a whole-module rule sees, pkgs included; nil means
// pkgs alone.
func RunAnalyzers(fset *token.FileSet, pkgs, module []*Package, analyzers []*Analyzer) []Diagnostic {
	if module == nil {
		module = pkgs
	}
	prepared := map[*Analyzer]any{}
	for _, a := range analyzers {
		if a.Prepare != nil {
			prepared[a] = a.Prepare(fset, module)
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, unit := range pkg.Units {
			sups, bad := parseSuppressions(fset, unit.Files)
			out = append(out, bad...)
			for _, a := range analyzers {
				if a.Scope != nil && !a.Scope(unit.ScopePath) {
					continue
				}
				if a.SkipTests && unit.XTest {
					continue
				}
				var diags []Diagnostic
				a.Run(&Pass{Unit: unit, Fset: fset, Prepared: prepared[a], analyzer: a, diags: &diags})
				for _, d := range diags {
					if a.SkipTests && strings.HasSuffix(d.File, "_test.go") {
						continue
					}
					if !suppressed(d, sups) {
						out = append(out, d)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// EncodeJSON writes one JSON object per line — the machine surface
// downstream tooling consumes with a plain json.Decoder.
func EncodeJSON(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}
