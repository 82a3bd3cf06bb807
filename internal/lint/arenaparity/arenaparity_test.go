// Package arenaparity_test runs roundview's carried check, which replaced
// the arenaparity analyzer — arena views that outlive a loop calling
// ExchangePorts — under the test name the analyzer had. The fixtures are
// roundview's own; TestRoundview runs them together with the other checks.
package arenaparity_test

import (
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestArenaparity(t *testing.T) {
	analysistest.Run(t, "../roundview/testdata/src/carried", roundview.Analyzer, "flagged", "clean")
}
