// Package detrand defines an analyzer enforcing the repository's
// bit-determinism contract inside the simulator's internal packages: every
// run is a pure function of its cell seed, so protocol, adversary, and
// compiler code must draw randomness only from the seeded RNGs the runtime
// hands out (Runtime.Rand, SelectorState, cell-seeded rand.New sources, and
// congest.SeededRand, a kept generator whose Restart(seed) starts seed's
// stream) and must never read the wall clock. Ambient randomness — the math/rand
// top-level functions backed by the global source, crypto/rand, time.Now —
// silently breaks reproducibility and the 120-trial cross-engine
// equivalence suite.
package detrand

import (
	"go/ast"
	"go/types"
	"strconv"

	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/lintutil"
)

// Analyzer flags ambient (non-seeded) randomness and wall-clock reads in
// internal packages.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "flags math/rand top-level functions, time.Now, and crypto/rand in internal " +
		"packages, where all randomness must flow from the cell-seeded RNGs",
	Run: run,
}

// seededConstructors are the math/rand entry points that take an explicit
// source or seed — the only sanctioned way into the package. Methods pass
// unchecked, so congest.SeededRand.Restart, which takes the seed itself,
// and every draw on the *rand.Rand it returns are sanctioned too.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !lintutil.IsInternal(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue // test code may time itself
		}
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "crypto/rand" {
				pass.Reportf(imp.Pos(), "import of crypto/rand: OS randomness is never deterministic; derive bytes from the run's seeded RNG")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine: the receiver carries the seed
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					pass.Reportf(id.Pos(), "call to %s.%s uses the ambient global source; use the runtime's seeded *rand.Rand", fn.Pkg().Path(), fn.Name())
				}
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(id.Pos(), "call to time.%s reads the wall clock; simulated time must be a function of rounds and the cell seed", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
