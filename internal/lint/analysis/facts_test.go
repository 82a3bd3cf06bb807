package analysis

import (
	"go/types"
	"os/exec"
	"strings"
	"testing"
)

// testFact is a minimal fact carrying a payload so the round-trip can
// verify more than presence.
type testFact struct {
	Tag string
}

func (*testFact) AFact() {}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// findPkg returns the loaded package with the given import path.
func findPkg(t *testing.T, pkgs []*Package, path string) *Package {
	t.Helper()
	for _, p := range pkgs {
		if p.ImportPath == path {
			return p
		}
	}
	t.Fatalf("package %s not in load result", path)
	return nil
}

const congestPath = "mobilecongest/internal/congest"

// TestObjectKeyRoundTrip checks that ObjectKey/ResolveKey agree for every
// addressable object shape: package-level funcs and types, concrete
// methods, and interface methods.
func TestObjectKeyRoundTrip(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), "./internal/congest")
	if err != nil {
		t.Fatalf("loading congest: %v", err)
	}
	congest := findPkg(t, pkgs, congestPath)
	scope := congest.Types.Scope()

	var objs []types.Object
	// Package-level declarations.
	for _, name := range []string{"NewRunContext", "Observer", "RoundView"} {
		obj := scope.Lookup(name)
		if obj == nil {
			t.Fatalf("congest.%s not found", name)
		}
		objs = append(objs, obj)
	}
	// Interface methods of Observer.
	obs := scope.Lookup("Observer").Type().Underlying().(*types.Interface)
	for i := 0; i < obs.NumMethods(); i++ {
		objs = append(objs, obs.Method(i))
	}
	// A concrete method.
	rv := scope.Lookup("RoundView").Type().(*types.Named)
	for i := 0; i < rv.NumMethods(); i++ {
		objs = append(objs, rv.Method(i))
	}

	for _, obj := range objs {
		key := ObjectKey(obj)
		if key == "" {
			t.Errorf("ObjectKey(%v) = \"\"; want addressable", obj)
			continue
		}
		got := ResolveKey(congest.Types, key)
		if got == nil {
			t.Errorf("ResolveKey(%q) = nil", key)
			continue
		}
		if got.Name() != obj.Name() || ObjectKey(got) != key {
			t.Errorf("ResolveKey(%q) = %v; want %v", key, got, obj)
		}
	}
}

// TestFactExportImportRoundTrip drives the full contract: an analyzer
// exports facts on congest objects, and a pass over a fresh load of a
// dependent package, where congest is only visible through export data,
// resolves them to the same objects.
func TestFactExportImportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks congest and a dependent")
	}
	root := moduleRoot(t)

	exporter := &Analyzer{
		Name:      "factexport",
		Doc:       "test: export facts on congest objects",
		FactTypes: []Fact{new(testFact)},
		Run: func(pass *Pass) error {
			if pass.Pkg.Path() != congestPath {
				return nil
			}
			scope := pass.Pkg.Scope()
			pass.ExportObjectFact(scope.Lookup("NewRunContext"), &testFact{Tag: "func"})
			obs := scope.Lookup("Observer").Type().Underlying().(*types.Interface)
			for i := 0; i < obs.NumMethods(); i++ {
				if m := obs.Method(i); m.Name() == "RoundStart" {
					pass.ExportObjectFact(m, &testFact{Tag: "ifacemethod"})
				}
			}
			return nil
		},
	}

	// Export pass over congest loaded from source.
	pkgs, err := Load(root, "./internal/congest")
	if err != nil {
		t.Fatalf("loading congest: %v", err)
	}
	store := NewFactStore()
	for _, p := range pkgs {
		if _, err := runPackage(p, []*Analyzer{exporter}, store); err != nil {
			t.Fatalf("export pass: %v", err)
		}
	}
	set := store.Get(congestPath)
	if set == nil || set.Len() != 2 {
		t.Fatalf("exported facts = %v; want 2", set.Len())
	}

	// Fresh load of a dependent: congest now comes in through export data,
	// so object identities differ from the export pass. The exported facts
	// must still resolve.
	pkgs2, err := Load(root, "./internal/algorithms")
	if err != nil {
		t.Fatalf("loading algorithms: %v", err)
	}
	algs := findPkg(t, pkgs2, "mobilecongest/internal/algorithms")
	store2 := &FactStore{byPath: map[string]*FactSet{congestPath: set}}

	checked := false
	importer := &Analyzer{
		Name:      "factimport",
		Doc:       "test: import facts across the export-data boundary",
		FactTypes: []Fact{new(testFact)},
		Run: func(pass *Pass) error {
			if pass.Pkg.Path() != "mobilecongest/internal/algorithms" {
				return nil
			}
			var congestTypes *types.Package
			for _, imp := range pass.Pkg.Imports() {
				if imp.Path() == congestPath {
					congestTypes = imp
				}
			}
			if congestTypes == nil {
				t.Error("algorithms does not import congest through export data")
				return nil
			}
			var f testFact
			if !pass.ImportObjectFact(congestTypes.Scope().Lookup("NewRunContext"), &f) || f.Tag != "func" {
				t.Errorf("NewRunContext fact = %+v; want tag \"func\"", f)
			}
			obs := congestTypes.Scope().Lookup("Observer").Type().Underlying().(*types.Interface)
			found := false
			for i := 0; i < obs.NumMethods(); i++ {
				m := obs.Method(i)
				var g testFact
				if pass.ImportObjectFact(m, &g) {
					if m.Name() != "RoundStart" || g.Tag != "ifacemethod" {
						t.Errorf("unexpected fact %+v on %s", g, m.Name())
					}
					found = true
				}
			}
			if !found {
				t.Error("no fact resolved on Observer.RoundStart through export data")
			}
			if n := len(pass.AllObjectFacts()); n != 2 {
				t.Errorf("AllObjectFacts returned %d facts; want 2", n)
			}
			checked = true
			return nil
		},
	}
	if _, err := runPackage(algs, []*Analyzer{importer}, store2); err != nil {
		t.Fatalf("import pass: %v", err)
	}
	if !checked {
		t.Fatal("import pass never ran over algorithms")
	}
}
