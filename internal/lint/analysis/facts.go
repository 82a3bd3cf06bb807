package analysis

import (
	"go/types"
	"reflect"
	"strings"
)

// Facts: the cross-package half of the x/tools analysis contract, mirrored
// on stdlib. An analyzer that declares FactTypes may attach facts to
// package-level objects of the package it is analyzing; when a dependent
// package is analyzed later (the loader yields packages in dependency
// order), the same analyzer can import those facts by object.
//
// x/tools keys facts by objectpath; this mirror uses a simpler name path
// that covers exactly the objects the mobilevet suite exports facts on:
// package-level functions, variables, types, methods of package-level named
// types ("T.M"), and interface methods ("Iface.M"). Object identity is
// deliberately not used as the key — a dependency seen through export data
// and the same dependency type-checked from source yield distinct
// *types.Package values — so facts are stored per import path under a
// stable textual key and re-resolved against whatever types.Package the
// consumer holds.

// A Fact is an observation about a package-level object, exported by one
// pass over the object's package and importable by passes over dependent
// packages. Fact types are told apart by the AFact marker method.
type Fact interface {
	AFact() // marker: only fact types implement this
}

// ObjectFact is one (object, fact) pair, as returned by AllObjectFacts.
type ObjectFact struct {
	Obj  types.Object
	Fact Fact
}

// ObjectKey returns the stable textual key facts are stored under for obj,
// or "" when the object is not fact-addressable (locals, closures,
// non-package-level declarations). Keys are "Name" for package-level
// objects and "Type.Method" for methods of package-level named types,
// including interface methods.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name()
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	switch t := recv.(type) {
	case *types.Named:
		tn := t.Obj()
		if tn.Pkg() == nil || tn.Parent() != tn.Pkg().Scope() {
			return ""
		}
		return tn.Name() + "." + fn.Name()
	case *types.Interface:
		// Explicit interface method whose receiver is the bare interface
		// type: recover the named owner by scanning the package scope for
		// the type that declares this exact method.
		scope := fn.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if iface.ExplicitMethod(i) == fn {
					return tn.Name() + "." + fn.Name()
				}
			}
		}
		return ""
	}
	return ""
}

// ResolveKey finds the object key names inside pkg: a package-level object,
// or a method (concrete or interface) of a package-level named type.
func ResolveKey(pkg *types.Package, key string) types.Object {
	if pkg == nil || key == "" {
		return nil
	}
	name, method, isMethod := strings.Cut(key, ".")
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	if !isMethod {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); m.Name() == method {
				return m
			}
		}
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	return nil
}

// factName is the registry name of a fact type: its bare struct name.
// Distinct analyzers must therefore use distinct fact type names, which the
// suite does (HotPathFact etc.).
func factName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// A FactSet holds the facts exported on one package's objects, keyed by
// ObjectKey then fact type name.
type FactSet struct {
	m map[string]map[string]Fact
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet { return &FactSet{m: make(map[string]map[string]Fact)} }

// put records fact under key, replacing any prior fact of the same type.
func (s *FactSet) put(key string, fact Fact) {
	if s.m[key] == nil {
		s.m[key] = make(map[string]Fact)
	}
	s.m[key][factName(fact)] = fact
}

// get copies the stored fact of ptr's type at key into ptr, reporting
// whether one was found.
func (s *FactSet) get(key string, ptr Fact) bool {
	if s == nil || key == "" {
		return false
	}
	f, ok := s.m[key][factName(ptr)]
	if !ok {
		return false
	}
	// Copy the stored value into the caller's pointer, x/tools-style.
	dst := reflect.ValueOf(ptr).Elem()
	src := reflect.ValueOf(f)
	if src.Kind() == reflect.Pointer {
		src = src.Elem()
	}
	dst.Set(src)
	return true
}

// Len reports the number of (object, fact) pairs in the set.
func (s *FactSet) Len() int {
	n := 0
	for _, byType := range s.m {
		n += len(byType)
	}
	return n
}

// FactStore accumulates per-package fact sets across an analysis run,
// keyed by import path (identity-free: see the package comment).
type FactStore struct {
	byPath map[string]*FactSet
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{byPath: make(map[string]*FactSet)} }

// Get returns the fact set for an import path, or nil.
func (st *FactStore) Get(path string) *FactSet { return st.byPath[path] }

// ensure returns the fact set for path, creating it if absent.
func (st *FactStore) ensure(path string) *FactSet {
	s := st.byPath[path]
	if s == nil {
		s = NewFactSet()
		st.byPath[path] = s
	}
	return s
}
