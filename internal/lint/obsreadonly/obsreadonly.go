// Package obsreadonly defines an analyzer enforcing the Observer pipeline's
// read-only contract: RoundDelivered hands every observer the same
// *RoundView over the engine's delivered round buffer, and the engine
// invokes observers in attachment order on every engine. An observer that
// mutates the view's slices or the Msg payloads it yields corrupts what
// every later observer — and the delivery fan-out — sees, breaking the
// byte-identical cross-engine trace guarantee. The analyzer inspects
// Observer implementations and flags writes through the view or anything
// derived from it.
package obsreadonly

import (
	"go/ast"
	"go/types"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// Analyzer flags Observer implementations mutating the RoundView or Msg
// payloads they receive.
var Analyzer = &analysis.Analyzer{
	Name: "obsreadonly",
	Doc: "flags Observer implementations that mutate RoundView slices or Msg payloads " +
		"handed to them; observers must treat the delivered round as read-only and " +
		"retain copies, not views",
	Run: run,
}

func run(pass *analysis.Pass) error {
	obsIface := observerInterface(pass.Pkg)
	if obsIface == nil {
		return nil // congest not reachable: no Observer implementations possible
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvType := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
			if recvType == nil || !implementsObserver(recvType, obsIface) {
				continue
			}
			checkMethod(pass, fd)
		}
	}
	return nil
}

// observerInterface finds congest.Observer from this package or its
// imports.
func observerInterface(pkg *types.Package) *types.Interface {
	lookupIn := func(p *types.Package) *types.Interface {
		if obj, ok := p.Scope().Lookup("Observer").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
		return nil
	}
	if lintutil.BasePkgPath(pkg.Path()) == lintutil.CongestPath {
		return lookupIn(pkg)
	}
	for _, imp := range pkg.Imports() {
		if lintutil.BasePkgPath(imp.Path()) == lintutil.CongestPath {
			return lookupIn(imp)
		}
	}
	return nil
}

func implementsObserver(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// checkMethod taints the method's *RoundView parameters (and everything
// derived from them) and flags writes through tainted values.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	taint := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isRoundView(obj.Type()) {
					taint[obj] = true
				}
			}
		}
	}
	if len(taint) == 0 {
		return
	}

	taintedExpr := func(e ast.Expr) bool {
		if root := lintutil.RootIdent(e); root != nil {
			if obj := lintutil.ObjOf(info, root); obj != nil {
				return taint[obj]
			}
		}
		return false
	}

	// Propagate: aliases of the view and the payloads its All() iterator
	// yields are all windows onto the same buffer.
	for {
		n := len(taint)
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			switch s := node.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, rhs := range s.Rhs {
					if derivesFromTaint(info, rhs, taint) {
						if id, ok := s.Lhs[i].(*ast.Ident); ok {
							if obj := lintutil.ObjOf(info, id); obj != nil {
								taint[obj] = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				if derivesFromTaint(info, s.X, taint) {
					for _, v := range []ast.Expr{s.Key, s.Value} {
						if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
							if obj := lintutil.ObjOf(info, id); obj != nil {
								taint[obj] = true
							}
						}
					}
				}
			}
			return true
		})
		if len(taint) == n {
			break
		}
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				// A write is a mutation only through an index, field, or
				// pointer of a tainted value; rebinding a local alias is fine.
				switch ast.Unparen(lhs).(type) {
				case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
					if taintedExpr(lhs) {
						pass.Reportf(lhs.Pos(), "observer mutates delivered round data; RoundView and Msg payloads are read-only (retain copies, not views)")
					}
				}
			}
		case *ast.IncDecStmt:
			switch ast.Unparen(s.X).(type) {
			case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
				if taintedExpr(s.X) {
					pass.Reportf(s.X.Pos(), "observer mutates delivered round data; RoundView and Msg payloads are read-only")
				}
			}
		case *ast.CallExpr:
			checkMutatingCall(pass, s, taintedExpr)
		}
		return true
	})
}

// derivesFromTaint reports whether e yields a view onto tainted data:
// the tainted value itself (or a sub-slice/field/element of it), or a
// All()/Corrupted() call on it.
func derivesFromTaint(info *types.Info, e ast.Expr, taint map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "All", "Corrupted":
				return derivesFromTaint(info, sel.X, taint)
			}
		}
		return false
	case *ast.ParenExpr:
		return derivesFromTaint(info, x.X, taint)
	case *ast.SliceExpr:
		return derivesFromTaint(info, x.X, taint)
	default:
		if root := lintutil.RootIdent(e); root != nil {
			if obj := lintutil.ObjOf(info, root); obj != nil {
				return taint[obj]
			}
		}
		return false
	}
}

// checkMutatingCall flags stdlib calls that write through a tainted
// argument: in-place sorts, copy with a tainted destination, and append to
// a tainted slice (which scribbles into the shared backing array when
// capacity allows).
func checkMutatingCall(pass *analysis.Pass, call *ast.CallExpr, taintedExpr func(ast.Expr) bool) {
	if fn := lintutil.CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sort":
			switch fn.Name() {
			case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
				if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
					pass.Reportf(call.Pos(), "observer sorts delivered round data in place; RoundView slices are read-only — sort a copy")
				}
			}
		case "slices":
			switch fn.Name() {
			case "Sort", "SortFunc", "SortStableFunc", "Reverse", "Delete", "Insert":
				if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
					pass.Reportf(call.Pos(), "observer mutates delivered round data in place; RoundView slices are read-only — operate on a copy")
				}
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "copy":
			if len(call.Args) == 2 && taintedExpr(call.Args[0]) {
				pass.Reportf(call.Pos(), "observer copies into delivered round data; RoundView slices and Msg payloads are read-only")
			}
		case "append":
			if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
				pass.Reportf(call.Pos(), "observer appends to a delivered round slice; when capacity allows this writes into the shared backing array — append to a fresh slice")
			}
		case "clear":
			if len(call.Args) == 1 && taintedExpr(call.Args[0]) {
				pass.Reportf(call.Pos(), "observer clears delivered round data; RoundView slices and maps are read-only")
			}
		}
	}
}

// isRoundView reports whether t is *congest.RoundView (or the value form).
func isRoundView(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == lintutil.CongestPath && obj.Name() == "RoundView"
}
