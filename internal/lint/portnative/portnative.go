// Package portnative defines an analyzer rejecting the legacy map-based
// compat wrapper Runtime.Exchange inside the simulator's internal packages.
// The map Exchange survives purely for foreign code (third-party
// protocols); internal hot-path code must stay port-native, both for the
// zero-alloc guarantees (each Exchange call materializes per-round maps)
// and because the compat fold re-derives state the port layer already
// holds.
package portnative

import (
	"go/ast"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// Analyzer flags calls to the legacy map Exchange from internal packages.
var Analyzer = &analysis.Analyzer{
	Name: "portnative",
	Doc: "flags legacy map Exchange compat calls in internal packages; " +
		"internal protocol code must use PortRuntime.ExchangePorts",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !lintutil.IsInternal(path) || lintutil.IsCongest(path) {
		// The congest core owns the wrappers; everything outside internal/
		// is exactly the foreign-code audience they exist for.
		return nil
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue // tests pin the compat wrappers byte-identical on purpose
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lintutil.IsCongestMethod(pass.TypesInfo, call, "Exchange") {
				pass.Reportf(call.Pos(), "call to legacy map Exchange compat wrapper; internal code must use PortRuntime.ExchangePorts")
			}
			return true
		})
	}
	return nil
}
