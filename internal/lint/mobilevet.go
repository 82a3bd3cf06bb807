// Package lint assembles the mobilevet analyzer suite: six analyzers
// encoding the simulator's correctness invariants as machine-checked rules.
// Each analyzer guards a contract that ordinary tests cannot see violated —
// seed-determinism, hot-path allocation freedom (propagated across package
// boundaries via exported facts), map-order folds, the port-native
// boundary, the round-view ownership contract (no view retained past its
// round, carried across a round loop, or written through), and shard-worker
// write isolation. cmd/mobilevet runs the suite standalone or as a
// `go vet -vettool`.
package lint

import (
	"mobilecongest/internal/lint/analysis"
	"mobilecongest/internal/lint/detrand"
	"mobilecongest/internal/lint/hotalloc"
	"mobilecongest/internal/lint/maprange"
	"mobilecongest/internal/lint/portnative"
	"mobilecongest/internal/lint/roundview"
	"mobilecongest/internal/lint/shardsafe"
)

// Suite returns the full mobilevet analyzer set in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		hotalloc.Analyzer,
		maprange.Analyzer,
		portnative.Analyzer,
		roundview.Analyzer,
		shardsafe.Analyzer,
	}
}
