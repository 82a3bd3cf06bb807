// Package portnative defines an analyzer keeping the simulator's own code on
// the one node interface, congest.Runtime and its port methods. Two
// remnants of the map era survive for code outside the module:
//
//   - the map Exchange compat wrapper. Internal packages must not call it,
//     both for the zero-alloc guarantees (each call materializes per-round
//     maps) and because the compat fold re-derives state the port layer
//     already holds;
//   - the root package's deprecated aliases Ports and PortRuntime, which
//     stay only because the benchmark harness under bench/ (a module of its
//     own) names them. No package of this module may use them, tests
//     included, so they cannot spread again before they go.
package portnative

import (
	"go/ast"
	"go/types"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// rootPath is the import path of the root package that declares the
// deprecated aliases.
const rootPath = "mobilecongest"

// Analyzer flags calls to the legacy map Exchange from internal packages and
// any use of the root package's deprecated Ports/PortRuntime aliases.
var Analyzer = &analysis.Analyzer{
	Name: "portnative",
	Doc: "flags legacy map Exchange compat calls in internal packages, and any use of the " +
		"deprecated mobilecongest.Ports/PortRuntime aliases; protocol code uses Runtime's port methods",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	// The congest core owns the compat wrapper, and everything outside
	// internal/ is exactly the foreign-code audience it exists for; tests pin
	// the wrapper byte-identical on purpose.
	checkExchange := lintutil.IsInternal(path) && !lintutil.IsCongest(path)
	for _, file := range pass.Files {
		exchange := checkExchange && !lintutil.IsTestFile(pass.Fset, file.Pos())
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if exchange && lintutil.IsCongestMethod(pass.TypesInfo, n, "Exchange") {
					pass.Reportf(n.Pos(), "call to legacy map Exchange compat wrapper; internal code must use Runtime.ExchangePorts")
				}
			case *ast.Ident:
				if isDeprecatedAlias(pass.TypesInfo.Uses[n]) {
					pass.Reportf(n.Pos(), "use of deprecated mobilecongest.%s, kept only for bench/; use Runtime and its port methods", n.Name)
				}
			}
			return true
		})
	}
	return nil
}

// isDeprecatedAlias reports whether obj is the root package's Ports or
// PortRuntime.
func isDeprecatedAlias(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || lintutil.BasePkgPath(obj.Pkg().Path()) != rootPath {
		return false
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return false
	}
	return obj.Name() == "Ports" || obj.Name() == "PortRuntime"
}
