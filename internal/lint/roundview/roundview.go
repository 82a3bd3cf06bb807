// Package roundview defines an analyzer guarding the ownership contract of
// the engine's round views. Node inboxes and outboxes
// (Runtime.ExchangePorts, OutBuf), RoundTraffic.Get payloads and
// RoundViews all alias per-run buffers the engine reuses every round; the
// inboxes and Get payloads live in parity double-buffered round arenas, or,
// for a payload its sender lent (Runtime.LendOut), in the sender's own
// buffer, which the sender keeps unchanged for as long. Either way a view
// is valid through the next round's collection and rewritten two rounds
// later.
// A view kept past its round, carried across a round loop, or written
// through corrupts silently: the bytes under the alias change with no fault
// the race detector or a test can see, and the byte-identical cross-engine
// results are lost.
//
// The analyzer makes one taint pass per function outside congest (the
// engine owns the buffers) and records, for every local that aliases a view,
// the kinds of view it aliases. Four checks read that taint:
//
//   - retained: a round-scoped view stored into a struct field or a
//     package-level variable, or captured by a closure that escapes via
//     return;
//   - carried: inside a round loop (a loop whose body calls ExchangePorts,
//     the round-advancing call), an arena view stored into a variable or
//     container declared outside the loop. Two stores are exempt: assigning
//     the acquisition call's own result (`in = rt.ExchangePorts(out)`, the
//     canonical reuse), and writing into the outbox passed to ExchangePorts
//     (the engine copies payloads out of it at collection, within the
//     parity window);
//   - lent: in a function that calls Runtime.LendOut, an arena or
//     read-only view stored into the outbox passed to ExchangePorts,
//     anywhere in the function. The outbox exemption above assumes the
//     engine copies; a lent payload is delivered by reference instead, and
//     its sender must own it;
//   - written: a store, ++/--, in-place sort or slices call, copy, append or
//     clear through a read-only view. Every reader shares these buffers:
//     observers see the same RoundView in attachment order, and a received
//     message may not be mutated in place.
//
// The fixtures of each check live in testdata/src, in the package named
// after the check (retained, carried, lent, written).
package roundview

import (
	"go/ast"
	"go/token"
	"go/types"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// Analyzer flags round views retained past their round, carried across a
// round loop, or written through.
var Analyzer = &analysis.Analyzer{
	Name: "roundview",
	Doc: "flags engine-owned round views (ExchangePorts inboxes, OutBuf, RoundTraffic.Get payloads, " +
		"RoundViews) retained in fields, package variables or escaping closures, carried across a " +
		"round loop, or written through; the engine rewrites them every round — copy instead",
	Run: run,
}

// kind is the set of view kinds a tainted value aliases.
type kind uint8

const (
	// roundScoped views are rewritten by the engine next round.
	roundScoped kind = 1 << iota
	// arena views live in a parity double-buffered round arena.
	arena
	// readOnly views are shared with the engine and every other reader.
	readOnly
)

// sources maps the congest methods whose results are views to the kinds
// they alias. OutBuf is round-scoped but the node's own to write.
var sources = map[string]kind{
	"ExchangePorts": roundScoped | arena | readOnly,
	"Get":           roundScoped | arena | readOnly,
	"OutBuf":        roundScoped,
	"All":           roundScoped,
}

// paramKinds maps the congest types whose pointer parameters are views on
// arrival (the observer and adversary callbacks) to their kinds.
var paramKinds = map[string]kind{
	"RoundView":    roundScoped | readOnly,
	"RoundTraffic": roundScoped,
}

func run(pass *analysis.Pass) error {
	if lintutil.IsCongest(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c := &checker{pass: pass, taint: make(map[types.Object]kind)}
				c.propagate(fd)
				outbox := outboxes(pass.TypesInfo, fd.Body)
				c.checkRetained(fd.Body)
				c.checkCarried(fd.Body, nil, outbox)
				c.checkWritten(fd.Body)
				if callsCongest(pass.TypesInfo, fd.Body, "LendOut") {
					c.checkLent(fd.Body, outbox)
				}
			}
		}
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	taint map[types.Object]kind
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	return lintutil.ObjOf(c.pass.TypesInfo, id)
}

// propagate seeds the view-typed parameters of fd and of the function
// literals inside it, then spreads taint through local assignments and
// range bindings until stable. Nested function literals share the taint
// environment, so a closure capturing a view is analyzed with it visible.
func (c *checker) propagate(fd *ast.FuncDecl) {
	ast.Inspect(fd, func(n ast.Node) bool {
		if ft, ok := n.(*ast.FuncType); ok && ft.Params != nil {
			for _, field := range ft.Params.List {
				for _, name := range field.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil && viewParamKinds(obj.Type()) != 0 {
						c.taint[obj] = viewParamKinds(obj.Type())
					}
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		bind := func(e ast.Expr, k kind) {
			id, ok := e.(*ast.Ident)
			if !ok || k == 0 {
				return
			}
			if obj := c.objOf(id); obj != nil && lintutil.DeclaredWithin(obj, fd) && c.taint[obj]|k != c.taint[obj] {
				c.taint[obj] |= k
				changed = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, rhs := range s.Rhs {
						bind(s.Lhs[i], c.kinds(rhs))
					}
				}
			case *ast.RangeStmt:
				// The elements an inbox or view yields alias the same buffer.
				k := c.kinds(s.X)
				bind(s.Key, k)
				bind(s.Value, k)
			}
			return true
		})
	}
}

// kinds reports the view kinds e evaluates to or aliases.
func (c *checker) kinds(e ast.Expr) kind {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return c.kinds(x.X)
	case *ast.SliceExpr:
		return c.kinds(x.X)
	case *ast.UnaryExpr:
		return c.kinds(x.X)
	case *ast.CompositeLit:
		// A fresh value holding views: it carries them, but writing the
		// value itself writes no view.
		var k kind
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			k |= c.kinds(el)
		}
		return k &^ readOnly
	case *ast.FuncLit:
		// A closure carries the views it captures wherever it goes.
		var k kind
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil && !lintutil.DeclaredWithin(obj, x) {
					k |= c.taint[obj]
				}
			}
			return true
		})
		return k &^ readOnly
	case *ast.CallExpr:
		return c.callKinds(x)
	default:
		if root := lintutil.RootIdent(e); root != nil {
			if obj := c.objOf(root); obj != nil {
				return c.taint[obj]
			}
		}
		return 0
	}
}

func (c *checker) callKinds(call *ast.CallExpr) kind {
	info := c.pass.TypesInfo
	if isBuiltin(info, call, "append") && len(call.Args) > 0 {
		// The result aliases the first argument's backing array. Later
		// arguments are copied in, but without ... the copies are headers
		// still pointing at the views; the container itself is fresh.
		k := c.kinds(call.Args[0])
		if call.Ellipsis == token.NoPos {
			for _, a := range call.Args[1:] {
				k |= c.kinds(a) &^ readOnly
			}
		}
		return k
	}
	fn := lintutil.CalleeFunc(info, call)
	if fn == nil || !lintutil.IsCongestMethod(info, call, fn.Name()) {
		return 0
	}
	k := sources[fn.Name()]
	if fn.Name() == "All" || fn.Name() == "Corrupted" {
		// What a view's iterator or edge list yields is part of the view.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			k |= c.kinds(sel.X)
		}
	}
	return k
}

// checkRetained flags round-scoped views stored where they outlive the
// round: struct fields, package-level variables, and closures returned to
// the caller.
func (c *checker) checkRetained(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				if c.kinds(rhs)&roundScoped == 0 {
					continue
				}
				switch l := ast.Unparen(s.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					v, ok := info.Uses[l.Sel].(*types.Var)
					if !ok {
						continue
					}
					if v.IsField() {
						c.pass.Reportf(rhs.Pos(), "round view stored in struct field %s; the engine rewrites its buffer next round — store a copy", l.Sel.Name)
					} else if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						c.pass.Reportf(rhs.Pos(), "round view stored in package-level variable %s; store a copy", l.Sel.Name)
					}
				case *ast.Ident:
					if lintutil.IsPkgLevel(c.objOf(l), c.pass.Pkg) {
						c.pass.Reportf(rhs.Pos(), "round view stored in package-level variable %s; store a copy", l.Name)
					}
				case *ast.IndexExpr, *ast.StarExpr:
					if root := lintutil.RootIdent(l); root != nil && lintutil.IsPkgLevel(c.objOf(root), c.pass.Pkg) {
						c.pass.Reportf(rhs.Pos(), "round view stored through package-level variable %s; store a copy", root.Name)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				t := info.TypeOf(res)
				if t == nil || c.kinds(res)&roundScoped == 0 {
					continue
				}
				if _, isFunc := t.Underlying().(*types.Signature); isFunc {
					c.pass.Reportf(res.Pos(), "closure capturing a round view escapes via return; copy the data instead (the engine rewrites it next round)")
				}
			}
		}
		return true
	})
}

// checkCarried flags arena views stored, inside a round loop, into a
// variable or container declared outside it. loop is the innermost
// enclosing round loop (nil outside any); field and package-level stores
// are checkRetained's.
func (c *checker) checkCarried(n ast.Node, loop ast.Node, outbox map[types.Object]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if s != loop && callsExchange(c.pass.TypesInfo, s) {
				c.checkCarried(s, s, outbox)
				return false
			}
		case *ast.AssignStmt:
			if loop == nil || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				if isAcquisition(c.pass.TypesInfo, rhs) || c.kinds(rhs)&arena == 0 {
					continue
				}
				root := lintutil.RootIdent(s.Lhs[i])
				if root == nil {
					continue
				}
				obj := c.objOf(root)
				if obj == nil || lintutil.DeclaredWithin(obj, loop) || lintutil.IsPkgLevel(obj, c.pass.Pkg) {
					continue
				}
				switch ast.Unparen(s.Lhs[i]).(type) {
				case *ast.Ident:
					c.pass.Reportf(rhs.Pos(), "arena view carried across rounds in %s; parity double-buffering rewrites its bytes two rounds later — copy the payload (append(dst[:0], m...))", root.Name)
				case *ast.IndexExpr, *ast.StarExpr:
					if !outbox[obj] {
						c.pass.Reportf(rhs.Pos(), "arena view stored across rounds in %s; parity double-buffering rewrites its bytes two rounds later — copy the payload", root.Name)
					}
				}
			}
		}
		return true
	})
}

// checkLent flags, in a function that lends its outbox (LendOut), an arena
// or read-only view stored into a slice the function hands to
// ExchangePorts. The engine delivers a lent payload by reference, so a
// forwarded inbox view or Get payload would reach the receivers as another
// node's buffer or a slot of the engine's arena, both rewritten while they
// read it.
func (c *checker) checkLent(body *ast.BlockStmt, outbox map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || len(s.Lhs) != len(s.Rhs) {
			return true
		}
		for i, rhs := range s.Rhs {
			if _, isIndex := ast.Unparen(s.Lhs[i]).(*ast.IndexExpr); !isIndex || c.kinds(rhs)&(arena|readOnly) == 0 {
				continue
			}
			if root := lintutil.RootIdent(s.Lhs[i]); root != nil && outbox[c.objOf(root)] {
				c.pass.Reportf(rhs.Pos(), "received view stored in lent outbox %s; the engine delivers lent payloads by reference — send a copy, or do not lend", root.Name)
			}
		}
		return true
	})
}

// outboxes collects the slices body hands to ExchangePorts: writes into
// them are same-round sends the engine copies out at collection, unless
// the function lends them (see checkLent).
func outboxes(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	outbox := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && lintutil.IsCongestMethod(info, call, "ExchangePorts") && len(call.Args) > 0 {
			if id := lintutil.RootIdent(call.Args[0]); id != nil {
				if obj := lintutil.ObjOf(info, id); obj != nil {
					outbox[obj] = true
				}
			}
		}
		return true
	})
	return outbox
}

// callsExchange reports whether the loop's body calls ExchangePorts, the
// round-advancing call.
func callsExchange(info *types.Info, loop ast.Node) bool {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	return callsCongest(info, body, "ExchangePorts")
}

// callsCongest reports whether n calls the named congest method.
func callsCongest(info *types.Info, n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && lintutil.IsCongestMethod(info, call, name) {
			found = true
		}
		return !found
	})
	return found
}

// isAcquisition reports whether e is itself an arena-view-producing call.
func isAcquisition(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && lintutil.IsCongestMethod(info, call, "ExchangePorts", "Get")
}

// checkWritten flags writes through read-only views. Rebinding a local
// alias is fine; a write is a store through an index, field or pointer, or
// a call that writes its argument's elements.
func (c *checker) checkWritten(body *ast.BlockStmt) {
	store := func(lhs ast.Expr) {
		switch ast.Unparen(lhs).(type) {
		case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
			if c.kinds(lhs)&readOnly != 0 {
				c.pass.Reportf(lhs.Pos(), "mutates read-only round data; inboxes, Get payloads and RoundViews are shared with the engine — write a copy")
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				store(lhs)
			}
		case *ast.IncDecStmt:
			store(s.X)
		case *ast.CallExpr:
			if len(s.Args) == 0 || c.kinds(s.Args[0])&readOnly == 0 {
				return true
			}
			if fn := lintutil.CalleeFunc(c.pass.TypesInfo, s); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() + "." + fn.Name() {
				case "sort.Slice", "sort.SliceStable", "sort.Sort", "sort.Stable", "sort.Strings", "sort.Ints", "sort.Float64s":
					c.pass.Reportf(s.Pos(), "sorts read-only round data in place; sort a copy")
				case "slices.Sort", "slices.SortFunc", "slices.SortStableFunc", "slices.Reverse", "slices.Delete", "slices.Insert":
					c.pass.Reportf(s.Pos(), "mutates read-only round data in place; operate on a copy")
				}
				return true
			}
			switch {
			case isBuiltin(c.pass.TypesInfo, s, "copy"):
				c.pass.Reportf(s.Pos(), "copies into read-only round data; inboxes, Get payloads and RoundViews are shared with the engine")
			case isBuiltin(c.pass.TypesInfo, s, "append"):
				c.pass.Reportf(s.Pos(), "appends to a read-only round slice; when capacity allows this writes into the engine's backing array — append to a fresh slice")
			case isBuiltin(c.pass.TypesInfo, s, "clear"):
				c.pass.Reportf(s.Pos(), "clears read-only round data; inboxes, Get payloads and RoundViews are shared with the engine")
			}
		}
		return true
	})
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// viewParamKinds reports the kinds a parameter of type t carries on
// arrival: those of a pointer to a congest view type, else none.
func viewParamKinds(t types.Type) kind {
	p, ok := t.(*types.Pointer)
	if !ok {
		return 0
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != lintutil.CongestPath {
		return 0
	}
	return paramKinds[n.Obj().Name()]
}
