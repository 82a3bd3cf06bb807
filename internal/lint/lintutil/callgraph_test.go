package lintutil_test

import (
	"go/types"
	"os/exec"
	"strings"
	"testing"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// loadCongest type-checks the congest package from source once per test
// binary and builds its call graph.
func loadCongest(t *testing.T) (*analysis.Package, *lintutil.CallGraph) {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	root := strings.TrimSpace(string(out))
	pkgs, err := analysis.Load(root, "./internal/congest")
	if err != nil {
		t.Fatalf("loading congest: %v", err)
	}
	for _, p := range pkgs {
		if p.ImportPath == lintutil.CongestPath {
			return p, lintutil.NewCallGraph(p.Fset, p.Files, p.TypesInfo)
		}
	}
	t.Fatal("congest not in load result")
	return nil, nil
}

// method resolves T.name (or Iface.name) in pkg's scope.
func method(t *testing.T, pkg *types.Package, typeName, name string) *types.Func {
	t.Helper()
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		t.Fatalf("%s not found in %s", typeName, pkg.Path())
	}
	if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); m.Name() == name {
				return m
			}
		}
		t.Fatalf("%s.%s not found", typeName, name)
	}
	m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, pkg, name)
	fn, ok := m.(*types.Func)
	if !ok {
		t.Fatalf("%s.%s not found", typeName, name)
	}
	return fn
}

// TestInterfaceDispatchEdges checks that a dynamic call through the
// Observer interface shows up as an edge to the interface method object.
func TestInterfaceDispatchEdges(t *testing.T) {
	pkg, g := loadCongest(t)
	beginRound := method(t, pkg.Types, "runCore", "beginRound")
	roundStart := method(t, pkg.Types, "Observer", "RoundStart")
	if !lintutil.IsInterfaceMethod(roundStart) {
		t.Fatal("Observer.RoundStart not recognized as an interface method")
	}
	found := false
	for _, callee := range g.Callees(beginRound) {
		if callee == roundStart {
			found = true
		}
	}
	if !found {
		t.Errorf("beginRound callees %v lack Observer.RoundStart", g.Callees(beginRound))
	}
}

// TestImplementationsMethodSets checks CHA resolution over the Engine and
// Observer method sets.
func TestImplementationsMethodSets(t *testing.T) {
	pkg, _ := loadCongest(t)

	runIface := method(t, pkg.Types, "Engine", "Run")
	var engines []string
	for _, impl := range lintutil.Implementations(pkg.Types, runIface) {
		sig := impl.Type().(*types.Signature)
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		engines = append(engines, recv.(*types.Named).Obj().Name())
	}
	for _, want := range []string{"ShardEngine"} {
		ok := false
		for _, got := range engines {
			if got == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("Implementations(Engine.Run) = %v; missing %s", engines, want)
		}
	}

	delivered := method(t, pkg.Types, "Observer", "RoundDelivered")
	impls := lintutil.Implementations(pkg.Types, delivered)
	foundCongestion := false
	for _, impl := range impls {
		if impl == method(t, pkg.Types, "CongestionObserver", "RoundDelivered") {
			foundCongestion = true
		}
	}
	if !foundCongestion {
		t.Errorf("Implementations(Observer.RoundDelivered) missing CongestionObserver's")
	}
}

// TestReachability checks BFS over static and value-taken edges with an
// interface-expand hook: the engine's RunIn reaches the shared round
// pipeline (through the phase method values handed
// to the pool) and, once dynamic edges resolve, the concrete observers.
func TestReachability(t *testing.T) {
	pkg, g := loadCongest(t)
	runIn := method(t, pkg.Types, "ShardEngine", "RunIn")
	expand := func(fn *types.Func) []*types.Func {
		var out []*types.Func
		for _, callee := range g.Callees(fn) {
			if lintutil.IsInterfaceMethod(callee) {
				out = append(out, lintutil.Implementations(pkg.Types, callee)...)
			}
		}
		return out
	}
	reach := g.Reachable([]*types.Func{runIn}, expand)
	for _, want := range []struct{ typ, name string }{
		{"runCore", "beginRound"},
		{"runCore", "collectShard"},
		{"runCore", "gather"},
		{"runCore", "deliverRound"},
		{"CongestionObserver", "RoundDelivered"}, // only via the interface expand
	} {
		if !reach[method(t, pkg.Types, want.typ, want.name)] {
			t.Errorf("ShardEngine.RunIn does not reach %s.%s", want.typ, want.name)
		}
	}
}
