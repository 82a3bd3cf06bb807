// Package slabretain defines an analyzer guarding the zero-alloc slab
// pipeline's ownership contract: the slices handed out by
// PortRuntime.ExchangePorts and OutBuf, and the RoundTraffic/RoundView
// views at the adversary and observer boundaries, all alias per-run buffers
// on RunContext that the engine reuses every round. Storing such a view past
// the round — in a struct field, a package-level variable, or a closure
// that escapes — is a silent-corruption bug: the data under the alias is
// overwritten by the next round with no fault the race detector or tests
// can see. The analyzer tracks these slab views through local assignments
// and flags stores that outlive the round.
package slabretain

import (
	"go/ast"
	"go/types"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// Analyzer flags slab-backed views retained past the round that produced
// them.
var Analyzer = &analysis.Analyzer{
	Name: "slabretain",
	Doc: "flags storing a slice obtained from ExchangePorts/OutBuf/Get or a RoundTraffic/RoundView " +
		"view into a struct field, package-level variable, or escaping closure; the slabs " +
		"are reused every round, so retention silently corrupts",
	Run: run,
}

// slabMethods are the congest methods whose results alias reused round
// buffers (All yields the buffer's Msg payloads through its iterator, and
// Get's payloads are views into the round's packed arena).
var slabMethods = []string{"ExchangePorts", "OutBuf", "All", "Get"}

// viewTypes are congest types whose values are themselves round-scoped
// views (observer and adversary callback parameters).
var viewTypes = map[string]bool{"RoundView": true, "RoundTraffic": true}

func run(pass *analysis.Pass) error {
	if lintutil.IsCongest(pass.Pkg.Path()) {
		return nil // the engine owns the slabs; retention there is its business
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc runs the per-function taint pass: seed round-scoped values,
// propagate through local assignments to a fixpoint, then flag escaping
// stores. Nested function literals share the taint environment, so a
// closure capturing a slab view is analyzed with it visible.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, taint: make(map[types.Object]bool)}

	// Parameters of round-view type are round-scoped on arrival.
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && isViewType(obj.Type()) {
					c.taint[obj] = true
				}
			}
		}
	}

	// Propagate taint through simple assignments and range bindings (the
	// payloads an inbox or view yields alias the same slab) until stable.
	for {
		before := len(c.taint)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, rhs := range s.Rhs {
					if !c.tainted(rhs) {
						continue
					}
					if id, ok := s.Lhs[i].(*ast.Ident); ok {
						if obj := lintutil.ObjOf(pass.TypesInfo, id); obj != nil && lintutil.DeclaredWithin(obj, fd) {
							c.taint[obj] = true
						}
					}
				}
			case *ast.RangeStmt:
				if !c.tainted(s.X) {
					return true
				}
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := lintutil.ObjOf(pass.TypesInfo, id); obj != nil {
							c.taint[obj] = true
						}
					}
				}
			}
			return true
		})
		if len(c.taint) == before {
			break
		}
	}

	// Flag escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				if !c.tainted(rhs) {
					continue
				}
				c.checkStore(s.Lhs[i], rhs)
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if c.tainted(res) && isFuncValue(pass.TypesInfo, res) {
					pass.Reportf(res.Pos(), "closure capturing a reused slab view escapes via return; copy the data instead (the slab is rewritten next round)")
				}
			}
		}
		return true
	})
}

type checker struct {
	pass  *analysis.Pass
	taint map[types.Object]bool
}

// tainted reports whether e evaluates to (or aliases) a round-scoped slab
// view.
func (c *checker) tainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return c.tainted(x.X)
	case *ast.SliceExpr:
		return c.tainted(x.X)
	case *ast.UnaryExpr:
		return c.tainted(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.tainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if lintutil.IsCongestMethod(c.pass.TypesInfo, x, slabMethods...) {
			return true
		}
		// append(slabView, ...) still aliases the slab when capacity allows.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			return c.tainted(x.Args[0])
		}
		return false
	case *ast.FuncLit:
		// A closure referencing a slab view carries it wherever it goes.
		captures := false
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if captures {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := lintutil.ObjOf(c.pass.TypesInfo, id); obj != nil && c.taint[obj] && !lintutil.DeclaredWithin(obj, x) {
					captures = true
				}
			}
			return true
		})
		return captures
	default:
		if root := lintutil.RootIdent(e); root != nil {
			if obj := lintutil.ObjOf(c.pass.TypesInfo, root); obj != nil {
				return c.taint[obj]
			}
		}
		return false
	}
}

// checkStore flags stores of a tainted value into locations that outlive
// the round: struct fields and package-level variables.
func (c *checker) checkStore(lhs, rhs ast.Expr) {
	info := c.pass.TypesInfo
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[l.Sel].(*types.Var); ok && v.IsField() {
			c.pass.Reportf(rhs.Pos(), "reused slab view stored in struct field %s; the backing buffer is rewritten next round — store a copy", l.Sel.Name)
			return
		}
		// Selector resolving to a package-level var of another package.
		if v, ok := info.Uses[l.Sel].(*types.Var); ok && v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			c.pass.Reportf(rhs.Pos(), "reused slab view stored in package-level variable %s; store a copy", l.Sel.Name)
		}
	case *ast.Ident:
		if obj := lintutil.ObjOf(info, l); lintutil.IsPkgLevel(obj, c.pass.Pkg) {
			c.pass.Reportf(rhs.Pos(), "reused slab view stored in package-level variable %s; store a copy", l.Name)
		}
	case *ast.IndexExpr, *ast.StarExpr:
		if root := lintutil.RootIdent(lhs); root != nil {
			if obj := lintutil.ObjOf(info, root); lintutil.IsPkgLevel(obj, c.pass.Pkg) {
				c.pass.Reportf(rhs.Pos(), "reused slab view stored through package-level variable %s; store a copy", root.Name)
			}
		}
	}
}

// isViewType reports whether t is (a pointer to) a congest round-view type.
func isViewType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == lintutil.CongestPath && viewTypes[obj.Name()]
}

// isFuncValue reports whether e has function type (a closure, not a data
// slice).
func isFuncValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}
