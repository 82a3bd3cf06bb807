package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader: a stdlib-only stand-in for golang.org/x/tools/go/packages.
// `go list -export -json -deps <patterns>` yields, for every package in the
// dependency closure, its source files plus a compiled export-data file; the
// target packages are then parsed and type-checked from source with their
// imports satisfied through go/importer's gc reader over those export
// files. This is exactly the go/packages LoadAllSyntax contract restricted
// to the target packages themselves, which is all a per-package analyzer
// needs.

// A Package is one type-checked target package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// FactsOnly marks an in-module dependency loaded solely so
	// fact-exporting analyzers can run over it before its dependents;
	// diagnostics from such packages are discarded.
	FactsOnly bool
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves patterns (import paths, ./... wildcards, or absolute
// directories) relative to dir — any directory inside the module — and
// returns the matched packages, parsed and type-checked. Test files are not
// loaded: the suite's invariants target production code, and tests
// deliberately exercise the legacy compat surfaces the analyzers reject.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	// go list -deps emits every package after its dependencies, so keeping
	// its order gives analyzers their fact-propagation order for free.
	dec := json.NewDecoder(&stdout)
	exports := make(map[string]string)
	var listed []*listPackage
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		q := p
		listed = append(listed, &q)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly && p.Standard {
			continue // stdlib: export data suffices, no facts to compute
		}
		var paths []string
		for _, gf := range append(p.GoFiles, p.CgoFiles...) {
			if filepath.IsAbs(gf) {
				paths = append(paths, gf)
			} else {
				paths = append(paths, filepath.Join(p.Dir, gf))
			}
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, paths)
		if err != nil {
			return nil, err
		}
		pkg.FactsOnly = p.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one package's files (absolute paths).
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", gf, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
