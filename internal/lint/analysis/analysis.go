// Package analysis is a self-contained, stdlib-only skeleton of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one type-checked
// package through a Pass and reports Diagnostics. The build environment for
// this repository vendors no third-party modules, so the x/tools framework
// is mirrored here at the small surface the mobilevet suite needs — the
// Analyzer/Pass shape is kept intentionally identical so the analyzers read
// (and could be ported) as ordinary x/tools analyzers.
//
// Suppression: a diagnostic is dropped when the offending line, or the line
// directly above it, carries a directive comment
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// naming the analyzer. The reason is mandatory; a directive without one is
// itself reported. This is the same contract staticcheck uses, so editors
// already highlight it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass: a named invariant checked over a
// single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the help text: first line is a one-sentence summary.
	Doc string

	// Run applies the analyzer to one package and reports findings through
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error

	// FactTypes lists prototype values of the Fact types this analyzer
	// exports or imports. An analyzer with FactTypes also runs, diagnostics
	// discarded, over in-module dependency packages so its facts reach the
	// packages under analysis.
	FactTypes []Fact
}

// A Pass presents one package to an Analyzer.Run and collects its
// diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report adds a diagnostic. Analyzers normally call Reportf.
	Report func(Diagnostic)

	// facts is the run-wide store: dependency packages' sets are already
	// populated when this pass runs (dependency-ordered execution), and
	// exports land in this package's set.
	facts *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj, which must be a fact-addressable
// (package-level, or method of a package-level type) object of the package
// under analysis. The fact becomes visible to later passes over dependent
// packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %v not in package %s", p.Analyzer.Name, obj, p.Pkg.Path()))
	}
	key := ObjectKey(obj)
	if key == "" {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %v is not fact-addressable", p.Analyzer.Name, obj))
	}
	p.facts.ensure(p.Pkg.Path()).put(key, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj (in this
// package or any dependency) into ptr, reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.Get(obj.Pkg().Path()).get(ObjectKey(obj), ptr)
}

// AllObjectFacts returns every (object, fact) pair visible to this pass:
// facts on this package's objects plus facts on objects of directly
// imported packages, in deterministic (package path, object key) order.
func (p *Pass) AllObjectFacts() []ObjectFact {
	pkgs := append([]*types.Package{p.Pkg}, p.Pkg.Imports()...)
	sort.Slice(pkgs[1:], func(i, j int) bool { return pkgs[i+1].Path() < pkgs[j+1].Path() })
	var out []ObjectFact
	for _, pkg := range pkgs {
		set := p.facts.Get(pkg.Path())
		if set == nil {
			continue
		}
		keys := make([]string, 0, len(set.m))
		for key := range set.m {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			obj := ResolveKey(pkg, key)
			if obj == nil {
				continue
			}
			names := make([]string, 0, len(set.m[key]))
			for name := range set.m[key] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				out = append(out, ObjectFact{Obj: obj, Fact: set.m[key][name]})
			}
		}
	}
	return out
}

// A Diagnostic is one finding: a position plus a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a diagnostic resolved against its analyzer and position —
// what drivers print and tests match. Suppressed findings (matched by a
// reasoned //lint:ignore) are retained for machine-readable output; text
// drivers and gates must filter them with Active.
type Finding struct {
	Analyzer   string
	Posn       token.Position
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Posn, f.Message, f.Analyzer)
}

// Active filters findings down to the unsuppressed ones — what fails a
// build.
func Active(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// IgnoreDirective is one parsed //lint:ignore comment.
type IgnoreDirective struct {
	Analyzers []string // analyzer names the directive silences
	Reason    string   // mandatory justification
	Line      int      // line the comment sits on
	File      string
	Pos       token.Pos
	Used      bool // set when a diagnostic matched it
}

// directivePrefix is what an ignore comment starts with.
const directivePrefix = "//lint:ignore"

// ParseDirectives extracts the //lint:ignore directives of a file.
// Malformed directives (no analyzer list or no reason) are returned as
// errors positioned at the comment.
func ParseDirectives(fset *token.FileSet, file *ast.File) ([]*IgnoreDirective, []Finding) {
	var dirs []*IgnoreDirective
	var bad []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignoreXYZ — not ours
			}
			posn := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				bad = append(bad, Finding{
					Analyzer: "lintdirective",
					Posn:     posn,
					Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer>[,...] <reason>\"",
				})
				continue
			}
			dirs = append(dirs, &IgnoreDirective{
				Analyzers: strings.Split(fields[0], ","),
				Reason:    strings.Join(fields[1:], " "),
				Line:      posn.Line,
				File:      posn.Filename,
				Pos:       c.Pos(),
			})
		}
	}
	return dirs, bad
}

// matches reports whether the directive silences analyzer a for a
// diagnostic in file at line.
func (d *IgnoreDirective) matches(a, file string, line int) bool {
	if d.File != file || (d.Line != line && d.Line != line-1) {
		return false
	}
	for _, name := range d.Analyzers {
		if name == a {
			return true
		}
	}
	return false
}

// RunAnalyzers applies analyzers to pkgs — which the loader yields in
// dependency order, dependencies first — and returns the findings in
// file/line order. Packages marked FactsOnly (in-module dependencies of the
// requested patterns) get fact-exporting analyzers only, diagnostics
// discarded: their job is to populate the fact store the real targets read.
// Diagnostics matched by a reasoned //lint:ignore are kept but marked
// Suppressed; malformed or unused //lint:ignore directives are themselves
// reported (an unused directive is stale and would otherwise rot silently).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	store := NewFactStore()
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := runPackage(pkg, analyzers, store)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	SortFindings(findings)
	return findings, nil
}

// runPackage applies analyzers to one package against a shared fact store
// whose dependency sets are already populated.
func runPackage(pkg *Package, analyzers []*Analyzer, store *FactStore) ([]Finding, error) {
	var findings []Finding
	var dirs []*IgnoreDirective
	if !pkg.FactsOnly {
		for _, f := range pkg.Files {
			fd, bad := ParseDirectives(pkg.Fset, f)
			dirs = append(dirs, fd...)
			findings = append(findings, bad...)
		}
	}
	for _, a := range analyzers {
		if pkg.FactsOnly && len(a.FactTypes) == 0 {
			continue
		}
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
		if pkg.FactsOnly {
			continue // facts recorded; the diagnostics belong to target runs
		}
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			f := Finding{Analyzer: a.Name, Posn: posn, Message: d.Message}
			for _, dir := range dirs {
				if dir.matches(a.Name, posn.Filename, posn.Line) {
					dir.Used = true
					f.Suppressed = true
					break
				}
			}
			findings = append(findings, f)
		}
	}
	if pkg.FactsOnly {
		return nil, nil
	}
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	for _, dir := range dirs {
		// A directive naming an analyzer that is not running this
		// invocation (analysistest runs one analyzer at a time) cannot be
		// proven stale.
		allRunning := true
		for _, name := range dir.Analyzers {
			if !running[name] {
				allRunning = false
				break
			}
		}
		if allRunning && !dir.Used {
			findings = append(findings, Finding{
				Analyzer: "lintdirective",
				Posn:     pkg.Fset.Position(dir.Pos),
				Message:  fmt.Sprintf("unused //lint:ignore directive for %s", strings.Join(dir.Analyzers, ",")),
			})
		}
	}
	return findings, nil
}

// SortFindings orders findings by file, line, column, then analyzer.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
